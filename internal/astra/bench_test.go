package astra

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/simtime"
)

// buildServingGraph constructs a TP-style iteration graph: workers x
// layers x (pre, attn, post) with a collective per layer — the node mix
// the Fig. 10 scalability sweep stresses.
func buildServingGraph(workers, layers int) *graph.Graph {
	g := graph.New()
	entry := make([]int, workers)
	for w := 0; w < workers; w++ {
		entry[w] = g.AddCompute("embed", w, simtime.Microsecond)
	}
	for l := 0; l < layers; l++ {
		post := make([]int, workers)
		for w := 0; w < workers; w++ {
			pre := g.AddCompute("pre", w, 10*simtime.Microsecond, entry[w])
			attn := g.AddCompute("attn", w, 5*simtime.Microsecond, pre)
			post[w] = g.AddCompute("post", w, 20*simtime.Microsecond, attn)
		}
		devs := make([]int, workers)
		for w := range devs {
			devs[w] = w
		}
		ar := g.AddAllReduce("ar", devs, 3*simtime.Microsecond, 1<<20, post...)
		for w := 0; w < workers; w++ {
			entry[w] = ar
		}
	}
	return g
}

// BenchmarkExecute measures the event engine across system scales.
func BenchmarkExecute(b *testing.B) {
	for _, workers := range []int{8, 64, 512} {
		g := buildServingGraph(workers, 32)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := new(Executor).Execute(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
