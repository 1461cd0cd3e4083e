package cli

import (
	"fmt"
	"io"

	"repro/internal/biclique"
	"repro/internal/bigraph"
	"repro/internal/tip"
)

// writeTipSummary prints the bitruss -tip report: both layers' tip
// decompositions with their maxima and resident sizes.
func writeTipSummary(stdout io.Writer, g *bigraph.Graph) {
	up := tip.Decompose(g, true)
	low := tip.Decompose(g, false)
	fmt.Fprintf(stdout, "tip        : upper max θ=%d (%d vertices, %d B), lower max θ=%d (%d vertices, %d B)\n",
		up.MaxTheta, len(up.Theta), up.SizeBytes(), low.MaxTheta, len(low.Theta), low.SizeBytes())
}

// writeBicliques prints the bitruss -bicliques report: the maximal
// bicliques at the given thresholds in the deterministic enumeration
// order, capped at top entries (top < 0 = all).
func writeBicliques(stdout io.Writer, g *bigraph.Graph, minUpper, minLower, top int) error {
	res, err := biclique.Enumerate(g, biclique.Options{MinUpper: minUpper, MinLower: minLower})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bicliques  : %d maximal at min %dx%d (largest sides %dx%d)\n",
		len(res.Bicliques), minUpper, minLower, res.MaxUpper, res.MaxLower)
	n := len(res.Bicliques)
	if top >= 0 && top < n {
		n = top
	}
	for i := 0; i < n; i++ {
		bc := res.Bicliques[i]
		fmt.Fprintf(stdout, "  #%d: %dx%d  upper=%v lower=%v\n", i, len(bc.Upper), len(bc.Lower), bc.Upper, bc.Lower)
	}
	if n < len(res.Bicliques) {
		fmt.Fprintf(stdout, "  ... %d more (raise -top)\n", len(res.Bicliques)-n)
	}
	return nil
}
