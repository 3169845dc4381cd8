package distnet

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/mat"
)

// BenchmarkNetAllReduce measures one 64×64 float64 allreduce across four
// single-rank processes on loopback TCP, per topology. Besides wall time
// it reports coord_ingress_B/op — bytes received by the coordinator
// process — which is the tree shape's headline win: the hub's root takes
// one payload from every other member (O(P·n) ingress), the tree's root
// one merged payload per child (O(log P) links, 2 children here).
func BenchmarkNetAllReduce(b *testing.B) {
	for _, topo := range topologies {
		b.Run(topo, func(b *testing.B) {
			cfg := testConfig(4)
			cfg.Topology = topo
			procs := startCluster(b, cfg, 1, 1, 1, 1)

			run := func(iters int) {
				done := make(chan struct{}, len(procs))
				for _, p := range procs {
					go func(p *Proc) {
						p.Run(func(c dist.Comm) {
							m := mat.NewDense(64, 64)
							d := m.Data()
							for i := range d {
								d[i] = float64(c.ID()*len(d) + i)
							}
							for it := 0; it < iters; it++ {
								c.AllReduceMat(m)
							}
						})
						done <- struct{}{}
					}(p)
				}
				for range procs {
					<-done
				}
			}

			run(3) // warm pools and settle connections outside the timer
			startRx, _ := procs[0].NetBytes()
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
			b.StopTimer()
			endRx, _ := procs[0].NetBytes()
			b.ReportMetric(float64(endRx-startRx)/float64(b.N), "coord_ingress_B/op")
		})
	}
}
