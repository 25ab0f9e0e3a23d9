package topology

import "fmt"

// This file models the wear-and-tear aspect that motivates the paper's move
// from a bus to a network architecture: textile interconnects break under
// repeated washing and bending, so the platform must keep operating on a
// degraded topology. RemoveLink/RemoveBiLink delete individual interconnects
// and FailLinks injects a deterministic pseudo-random fault pattern while
// preserving connectivity.

// ErrLinkNotFound is returned when removing a link that does not exist.
var ErrLinkNotFound = fmt.Errorf("topology: link not found")

// RemoveLink deletes the directed link from -> to.
func (g *Graph) RemoveLink(from, to NodeID) error {
	if _, ok := g.Link(from, to); !ok {
		return fmt.Errorf("%w: %d -> %d", ErrLinkNotFound, from, to)
	}
	g.out[from] = dropLink(g.out[from], from, to)
	g.sorted = dropLink(g.sorted, from, to)
	return nil
}

// RemoveBiLink deletes both directed links between a and b.
func (g *Graph) RemoveBiLink(a, b NodeID) error {
	if err := g.RemoveLink(a, b); err != nil {
		return err
	}
	return g.RemoveLink(b, a)
}

func dropLink(links []Link, from, to NodeID) []Link {
	out := links[:0]
	for _, l := range links {
		if l.From == from && l.To == to {
			continue
		}
		out = append(out, l)
	}
	return out
}

// FailLinks removes approximately the given fraction of the graph's
// bidirectional interconnects, chosen by a deterministic pseudo-random
// sequence seeded with seed. A removal that would disconnect the graph is
// skipped, so the surviving platform can always still route around the
// failures (a fully partitioned garment is simply dead and not an
// interesting routing scenario). It returns the undirected links that were
// actually removed, plus the shortfall: how many of the targeted removals
// could not be performed because every remaining candidate would have
// partitioned the fabric. A shortfall is not an error — a garment that
// cannot shed that many links simply sheds fewer — but callers sweeping the
// fraction axis near saturation should check it rather than assume the
// requested damage landed.
func FailLinks(g *Graph, fraction float64, seed uint64) ([]Link, int, error) {
	if fraction < 0 || fraction >= 1 {
		return nil, 0, fmt.Errorf("topology: failure fraction must be in [0,1), got %g", fraction)
	}
	if fraction == 0 {
		return nil, 0, nil
	}
	// Collect the undirected links (From < To) in deterministic order.
	var undirected []Link
	for _, l := range g.Links() {
		if l.From < l.To {
			undirected = append(undirected, l)
		}
	}
	target := int(float64(len(undirected)) * fraction)
	state := seed*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	// Shuffle the candidate list deterministically.
	for i := len(undirected) - 1; i > 0; i-- {
		j := next(i + 1)
		undirected[i], undirected[j] = undirected[j], undirected[i]
	}
	var removed []Link
	for _, l := range undirected {
		if len(removed) >= target {
			break
		}
		if err := g.RemoveBiLink(l.From, l.To); err != nil {
			return removed, target - len(removed), err
		}
		if g.Connected() {
			removed = append(removed, l)
			continue
		}
		// Undo a removal that partitions the fabric.
		if err := g.AddBiLink(l.From, l.To, l.LengthCM); err != nil {
			return removed, target - len(removed), err
		}
	}
	return removed, target - len(removed), nil
}
