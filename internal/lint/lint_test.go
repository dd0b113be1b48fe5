package lint

import (
	"go/token"
	"testing"
)

// TestAnalyzerMetadata: every analyzer must carry the metadata the
// drivers and the suppression machinery rely on.
func TestAnalyzerMetadata(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || !token.IsIdentifier(a.Name) {
			t.Errorf("analyzer name %q is not a valid identifier", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
		if a.Name == "tplint" {
			t.Errorf("analyzer name %q collides with the suppression machinery's pseudo-analyzer", a.Name)
		}
	}
	if len(seen) != 2 {
		t.Errorf("expected the 2-analyzer suite, got %d", len(seen))
	}
}

// TestSuppressionHonored: a well-formed //tplint:ignore with a reason
// silences the finding on the next line and is counted as used.
func TestSuppressionHonored(t *testing.T) {
	pkg := loadFixture(t, "suppress", "fixture/internal/engine/supfix")
	diags := RunAnalyzers(Analyzers(), []*Package{pkg})
	if len(diags) != 0 {
		t.Fatalf("suppressed fixture should be clean, got:\n%v", diagsByMessage(diags))
	}
}

// TestSuppressionMisuse: a reason-less ignore, an unknown analyzer name
// and a stale ignore are each their own diagnostic — and a malformed
// ignore does not suppress the violation it sits on.
func TestSuppressionMisuse(t *testing.T) {
	pkg := loadFixture(t, "suppressbad", "fixture/internal/engine/supbad")
	rendered := diagsByMessage(RunAnalyzers(Analyzers(), []*Package{pkg}))

	for _, want := range []string{
		// missingReason: the malformed ignore is reported...
		"tplint: tplint:ignore ctxcheck needs a written reason",
		// ...and does not suppress the drain-loop finding under it.
		"ctxcheck: drain loop has no cancellation checkpoint",
		// unknownAnalyzer names no real analyzer.
		"tplint: tplint:ignore needs a known analyzer name",
		// unusedSuppression covers nothing.
		"tplint: tplint:ignore ctxcheck suppresses nothing on this or the next line",
	} {
		if !containsDiag(rendered, want) {
			t.Errorf("missing diagnostic containing %q in:\n%v", want, rendered)
		}
	}
	// Exactly: 2 malformed + 1 unused + 2 unsuppressed ctxcheck findings
	// (missingReason's and unknownAnalyzer's loops both violate).
	if len(rendered) != 5 {
		t.Errorf("expected 5 diagnostics, got %d:\n%v", len(rendered), rendered)
	}
}
