package metrics

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by name. Histograms render the
// conventional cumulative _bucket{le="..."} series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.sorted() {
		bw.WriteString("# HELP ")
		bw.WriteString(e.name)
		bw.WriteByte(' ')
		bw.WriteString(e.help)
		bw.WriteString("\n# TYPE ")
		bw.WriteString(e.name)
		bw.WriteByte(' ')
		bw.WriteString(e.kind.String())
		bw.WriteByte('\n')
		switch e.kind {
		case kindCounter:
			bw.WriteString(e.name)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatUint(e.counter.Value(), 10))
			bw.WriteByte('\n')
		case kindGauge:
			bw.WriteString(e.name)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(e.gauge.Value(), 10))
			bw.WriteByte('\n')
		case kindHistogram:
			counts, sum, total := e.hist.snapshot()
			var cum uint64
			for i, c := range counts {
				cum += c
				bw.WriteString(e.name)
				bw.WriteString(`_bucket{le="`)
				if i < len(e.hist.bounds) {
					bw.WriteString(formatFloat(e.hist.bounds[i]))
				} else {
					bw.WriteString("+Inf")
				}
				bw.WriteString(`"} `)
				bw.WriteString(strconv.FormatUint(cum, 10))
				bw.WriteByte('\n')
			}
			bw.WriteString(e.name)
			bw.WriteString("_sum ")
			bw.WriteString(formatFloat(sum))
			bw.WriteByte('\n')
			bw.WriteString(e.name)
			bw.WriteString("_count ")
			bw.WriteString(strconv.FormatUint(total, 10))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
