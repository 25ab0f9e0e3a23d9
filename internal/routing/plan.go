package routing

// Plan is the complete output of one controller routing computation: the
// phase-2 shortest paths and the phase-3 routing tables, tagged with the
// algorithm that produced them.
type Plan struct {
	Algorithm string
	Paths     *ShortestPaths
	Tables    *Tables
}
