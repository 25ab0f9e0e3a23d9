package scenario

import (
	"fmt"
	"testing"
)

// BenchmarkStrategy measures Spec.Strategy, the build every simulation run
// starts with (etserve builds one only for a cold run). The 4x4 and 5x5
// cases are the eight hot specs of the serve-mixed benchmark workload; 16x16
// and 64x64 show how the mesh build scales.
func BenchmarkStrategy(b *testing.B) {
	type bench struct {
		name string
		sp   Spec
	}
	var cases []bench
	for _, mesh := range []int{4, 5} {
		for _, alg := range []string{"EAR", "SDR"} {
			for _, jobs := range []int{1, 2} {
				cases = append(cases, bench{
					fmt.Sprintf("%dx%d/%s/jobs=%d", mesh, mesh, alg, jobs),
					Spec{Mesh: mesh, Algorithm: alg, ConcurrentJobs: jobs},
				})
			}
		}
	}
	cases = append(cases, bench{"16x16", Spec{Mesh: 16}}, bench{"64x64", Spec{Mesh: 64}})
	for _, c := range cases {
		sp := c.sp
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sp.Strategy(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
