package lint

import (
	"go/token"
	"testing"
)

// TestAnalyzerMetadata: every analyzer must carry the metadata the
// driver and the diagnostics rely on.
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
	}
	if len(seen) != 1 || !seen["ctxcheck"] {
		t.Errorf("expected the 1-analyzer suite [ctxcheck], got %v", seen)
	}
}
