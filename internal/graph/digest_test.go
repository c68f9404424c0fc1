package graph

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// edgeDigest hashes a generated graph's vertex count and sorted edge list,
// plus the next draw of rng when the generator took one, so a digest pins
// both the edge set and how many numbers the generator consumed.
func edgeDigest(g *Persistent, rng *rand.Rand) string {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d\n", g.NumVertexSlots())
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d %d\n", e.U, e.V)
	}
	if rng != nil {
		fmt.Fprintf(h, "next=%d\n", rng.Int63())
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestGeneratorDigests pins every generator's output at fixed seeds. The
// digests were recorded before the generators were rebuilt on FromEdges;
// GnpConnected at n=4096 and n=16384 uses the repository benchmark's
// average-degree-4 edge probability, so its graphs are pinned too.
func TestGeneratorDigests(t *testing.T) {
	seeded := func(seed int64, gen func(*rand.Rand) *Persistent) func() string {
		return func() string {
			rng := rand.New(rand.NewSource(seed))
			return edgeDigest(gen(rng), rng)
		}
	}
	fixed := func(g *Persistent) func() string {
		return func() string { return edgeDigest(g, nil) }
	}
	degree4 := func(n int) float64 {
		return (2*float64(n) - float64(n-1)) / (float64(n) * float64(n-1) / 2)
	}
	cases := []struct {
		name string
		run  func() string
		want string
	}{
		{"Gnp/300/0.02", seeded(1, func(r *rand.Rand) *Persistent { return Gnp(300, 0.02, r) }), "0109ff971cc3d568"},
		{"Gnp/40/0.5", seeded(2, func(r *rand.Rand) *Persistent { return Gnp(40, 0.5, r) }), "ad4b0db56bdf4f32"},
		{"Gnp/12/1", seeded(3, func(r *rand.Rand) *Persistent { return Gnp(12, 1, r) }), "e2803db9da02e410"},
		{"Gnp/12/0", seeded(3, func(r *rand.Rand) *Persistent { return Gnp(12, 0, r) }), "f61f94d2e9fb79ad"},
		{"GnpConnected/200/0.03", seeded(4, func(r *rand.Rand) *Persistent { return GnpConnected(200, 0.03, r) }), "2540611622869d8c"},
		{"GnpConnected/30/0.6", seeded(5, func(r *rand.Rand) *Persistent { return GnpConnected(30, 0.6, r) }), "82c83473e6f34ad0"},
		{"GnpConnected/12/1", seeded(6, func(r *rand.Rand) *Persistent { return GnpConnected(12, 1, r) }), "6365b0763fd40844"},
		{"GnpConnected/4096/deg4", seeded(5001, func(r *rand.Rand) *Persistent { return GnpConnected(4096, degree4(4096), r) }), "89de0d77c162142b"},
		{"GnpConnected/16384/deg4", seeded(5002, func(r *rand.Rand) *Persistent { return GnpConnected(16384, degree4(16384), r) }), "4eab0cde63374b7a"},
		{"RandomTree/500", seeded(7, func(r *rand.Rand) *Persistent { return RandomTree(500, r) }), "974980f97fb5ea00"},
		{"Path/50", fixed(Path(50)), "304821d28e5ce3eb"},
		{"Cycle/50", fixed(Cycle(50)), "ee77577b993d50e0"},
		{"Cycle/2", fixed(Cycle(2)), "1d437484a00ecc8c"},
		{"Star/50", fixed(Star(50)), "c144b0ecc5903c4d"},
		{"Complete/20", fixed(Complete(20)), "2b38a10b93772336"},
		{"BinaryTree/63", fixed(BinaryTree(63)), "4ed10435ee3293bc"},
		{"Broom/100/30", fixed(Broom(100, 30)), "a77acb0f4fe44904"},
		{"Grid/7/9", fixed(Grid(7, 9)), "1852a8284a0d2f2f"},
		{"CycleOfCliques/6/4", fixed(CycleOfCliques(6, 4)), "a4be41ea6c2330b7"},
		{"CycleOfCliques/2/3", fixed(CycleOfCliques(2, 3)), "9df45243daaf0acb"},
		{"CycleOfCliques/3/1", fixed(CycleOfCliques(3, 1)), "0dd770824e4b6f3e"},
		{"CycleOfCliques/1/5", fixed(CycleOfCliques(1, 5)), "ba863e08cce39e19"},
		{"Caterpillar/10/3", fixed(Caterpillar(10, 3)), "8438dbb1f166517d"},
	}
	for _, c := range cases {
		if got := c.run(); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
