package core

import (
	"fmt"
	"testing"
)

// BenchmarkMaintainParallel measures the maintenance pipeline across
// shard counts on the 60k-edge graph at batch sizes whose closures are
// large enough to re-peel a meaningful region (small batches are
// covered by BenchmarkMaintain).
func BenchmarkMaintainParallel(b *testing.B) {
	g, res := benchBase(b)
	for _, size := range []int{1000, 4000} {
		g2, rm, err := benchDelta(g, size, int64(size)).Apply()
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("batch=%d/workers=%d", size, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := Maintain(g, res, g2, rm, MaintainOptions{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
