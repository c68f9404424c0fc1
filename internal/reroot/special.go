package reroot

// heavySpecial handles the paper's "Special case of heavy subtree
// traversal": all three scenarios failed, which (by Lemma 6) pins the
// geometry to τd = τp with both the highest and lowest eligible back edges
// emerging from the same chain hanger.
//
// The paper resolves this with a modified r' traversal followed by a root /
// upward-cover / downward-cover traversal of τd — a two-arm exploration (the
// second arm re-enters at an interior vertex of the first). The present
// implementation resolves the component with the always-correct l-shaped
// fallback instead and counts the occurrence; the configuration requires a
// conjunction of three nested scenario failures and does not arise on any of
// the random or adversarial workloads in the test suite (asserted there).
// The effect of this substitution is only on the round bound for inputs that
// repeatedly regenerate the special case, never on correctness.
func (e *Engine) heavySpecial(c *Comp, rcPiece int) ([]*Comp, error) {
	e.Stats.HeavySpecial++
	return e.fallback(c, rcPiece)
}
