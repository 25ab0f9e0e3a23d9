package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// Spans is the per-run flight recorder: attached as an observer it receives
// the engine's wall-clock phase spans (it implements sim.PhaseObserver, so
// attaching it turns the span clock on), and via CellObserver it can also
// record the runner's per-cell worker spans during a sweep. The collected
// timeline exports as Chrome trace-event JSON (WriteChromeTrace), loadable
// in chrome://tracing or Perfetto.
//
// Spans is observational only: it never feeds anything back into the
// simulation, so a run with a flight recorder attached produces
// byte-identical outputs to one without (guarded in CI by the -spans
// byte-diff step). The zero value is ready to use and safe for concurrent
// recording from multiple workers.
type Spans struct {
	sim.BaseObserver

	mu    sync.Mutex
	epoch time.Time // clock anchor for cell spans; first cell start seen
	cells int       // cell spans recorded so far: the next cell span's number
	spans []Span
}

// Span is one recorded interval on the flight recorder's clock.
type Span struct {
	// Name is the display name ("snapshot", "control-full", "cell 17", ...).
	// Cell spans are numbered in recording order, so their names are unique
	// within a recorder even when it sees many pool runs.
	Name string
	// Cat is the trace-event category: "engine" for phase spans, "runner"
	// for worker cell spans.
	Cat string
	// TID is the virtual thread the span renders on: engine phases share
	// tid 1; runner cells render one row per worker (tid 100+worker).
	TID int
	// Frame is the engine frame the span belongs to, or -1 for cell spans.
	Frame int64
	// Index is a cell span's input index within its pool run (the traces
	// show it as the "index" argument), or -1 for engine spans.
	Index int
	// StartNS and DurationNS are nanoseconds on the recorder's clock.
	StartNS    int64
	DurationNS int64
}

// engineTID is the virtual thread for engine phase spans; cell spans render
// on cellTIDBase+worker.
const (
	engineTID   = 1
	cellTIDBase = 100
)

// PhaseSpan implements sim.PhaseObserver.
func (s *Spans) PhaseSpan(e sim.PhaseSpanEvent) {
	s.mu.Lock()
	s.spans = append(s.spans, Span{
		Name:       e.Phase.String(),
		Cat:        "engine",
		TID:        engineTID,
		Frame:      e.Frame,
		Index:      -1,
		StartNS:    e.StartNS,
		DurationNS: e.DurationNS,
	})
	s.mu.Unlock()
}

// CellObserver returns a callback with the runner's cell-observer shape
// (runner.WithCellObserver) that records one span per executed cell, one
// virtual thread per worker. The first cell start seen anchors the clock.
// A pool's input indices restart at 0 on every run, so a span is named
// after the recorder's running cell count and carries the index apart.
func (s *Spans) CellObserver() func(index, worker int, start time.Time, d time.Duration) {
	return func(index, worker int, start time.Time, d time.Duration) {
		s.mu.Lock()
		if s.epoch.IsZero() {
			s.epoch = start
		}
		ts := start.Sub(s.epoch).Nanoseconds()
		if ts < 0 {
			// A cell on another worker started before the anchor cell; clamp
			// rather than emit a negative timestamp (Perfetto rejects them).
			ts = 0
		}
		s.spans = append(s.spans, Span{
			Name:       fmt.Sprintf("cell %d", s.cells),
			Cat:        "runner",
			TID:        cellTIDBase + worker,
			Frame:      -1,
			Index:      index,
			StartNS:    ts,
			DurationNS: d.Nanoseconds(),
		})
		s.cells++
		s.mu.Unlock()
	}
}

// Len returns the number of recorded spans.
func (s *Spans) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// Spans returns a copy of the recorded spans in recording order.
func (s *Spans) Spans() []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...)
}

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array: a complete ("ph":"X") event with microsecond timestamps.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the recorded spans as Chrome trace-event JSON.
// Engine phase spans additionally get one synthesized container span per
// frame (named "frame N", spanning that frame's in-frame phases, on its own
// virtual thread) so the frame structure is visible at a glance when zoomed
// out. Timestamps are microseconds, as the format requires.
func (s *Spans) WriteChromeTrace(w io.Writer) error {
	spans := s.Spans()
	const frameTID = 0 // container row above the phase row

	// Synthesize per-frame container spans from the in-frame phases
	// (schedule gaps belong to the space between frames and are excluded).
	type window struct{ start, end int64 }
	frames := map[int64]*window{}
	var order []int64
	for _, sp := range spans {
		if sp.Cat != "engine" || sp.Frame < 0 || sp.Name == sim.PhaseSchedule.String() {
			continue
		}
		wd, ok := frames[sp.Frame]
		if !ok {
			wd = &window{start: sp.StartNS, end: sp.StartNS + sp.DurationNS}
			frames[sp.Frame] = wd
			order = append(order, sp.Frame)
			continue
		}
		if sp.StartNS < wd.start {
			wd.start = sp.StartNS
		}
		if end := sp.StartNS + sp.DurationNS; end > wd.end {
			wd.end = end
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	events := make([]chromeEvent, 0, len(spans)+len(order))
	for _, f := range order {
		wd := frames[f]
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("frame %d", f),
			Cat:  "engine",
			Ph:   "X",
			PID:  1,
			TID:  frameTID,
			TS:   float64(wd.start) / 1e3,
			Dur:  float64(wd.end-wd.start) / 1e3,
			Args: map[string]int64{"frame": f},
		})
	}
	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			PID:  1,
			TID:  sp.TID,
			TS:   float64(sp.StartNS) / 1e3,
			Dur:  float64(sp.DurationNS) / 1e3,
		}
		switch {
		case sp.Frame >= 0:
			ev.Args = map[string]int64{"frame": sp.Frame}
		case sp.Index >= 0:
			ev.Args = map[string]int64{"index": int64(sp.Index)}
		}
		events = append(events, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteFile writes the Chrome trace to path.
func (s *Spans) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
