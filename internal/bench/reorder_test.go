package bench

import (
	"strings"
	"testing"
)

// TestReorderExperiment is the acceptance gate for the similarity
// reorder mode: on the clustered dataset the clump-sorted container
// must be at least 5% smaller than the identity container, the
// out-of-core external sort path must actually run (spilled runs), and
// the experiment itself verifies byte-identical original-order restore
// (it errors out otherwise).
func TestReorderExperiment(t *testing.T) {
	s := testSuite(t)
	tb, err := s.Run("reorder")
	if err != nil {
		t.Fatal(err)
	}
	gain, ok := tb.Metrics["reorder_gain_pct"]
	if !ok {
		t.Fatalf("no reorder_gain_pct metric: %+v", tb.Metrics)
	}
	if gain < 5 {
		t.Fatalf("clump reorder saves only %.2f%% on the clustered dataset, want >= 5%%", gain)
	}
	if tb.Metrics["reorder_spilled_runs"] < 1 {
		t.Fatal("external sort never spilled — the out-of-core path went unexercised")
	}
	if tb.Metrics["reorder_clump_ratio"] <= tb.Metrics["reorder_identity_ratio"] {
		t.Fatal("clump ratio not better than identity ratio")
	}
	if !strings.Contains(tb.Render(), "clump reorder") {
		t.Fatal("table render missing the reorder row")
	}
}
