package analyze

import (
	"path/filepath"
	"testing"
)

// TestMonoidPureRootsEnrich pins the analyzer's coverage of the
// enrichment package: every combine path of internal/enrich — the
// monoid Merge/Fold methods, the lattice merge, and the cross-set
// Union/absorb machinery — must be rooted, so a nondeterministic or
// operand-mutating enrichment merge fails repolint, not just the
// conformance harness. The enrichment, fusion and pipeline packages
// must all pass without lint:ignore suppressions.
func TestMonoidPureRootsEnrich(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join(loader.root, "internal", "enrich"))
	if err != nil {
		t.Fatalf("Load(internal/enrich): %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/enrich" {
		t.Fatalf("loaded %+v, want one package repro/internal/enrich", pkgs)
	}
	pkg := pkgs[0]
	pass := &Pass{
		Analyzer: MonoidPure,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	names := make(map[string]bool)
	for _, fn := range monoidRoots(pass) {
		names[rootDisplayName(fn)] = true
	}
	for _, want := range []string{
		"Lattice.Merge", "node.merge", "Union", "node.absorb",
		"ranges.Merge", "hll.Merge", "bloom.Merge", "formats.Merge",
		"lengths.Merge", "numPrec.Merge",
		"ranges.Fold", "hll.Fold", "bloom.Fold", "formats.Fold",
		"lengths.Fold", "numPrec.Fold",
	} {
		if !names[want] {
			t.Errorf("monoidRoots missed %s (got %v)", want, names)
		}
	}

	// And the package must be clean under the full interprocedural
	// check, with no suppressions to hide behind.
	diags := Check(pkgs, []*Analyzer{MonoidPure})
	for _, d := range diags {
		t.Errorf("internal/enrich: %s", d)
	}
	sup, _ := collectSuppressions(pkg.Fset, pkg.Files)
	if len(sup) > 0 {
		t.Errorf("internal/enrich carries lint:ignore suppression(s) in %d file(s); enrichment merge paths must be clean without them", len(sup))
	}

	// The fusion kernel and the pipeline accumulators are the other
	// merge paths of a run; they too stay clean without suppressions.
	for _, dir := range []string{"fusion", "pipeline"} {
		pkgs, err := loader.Load(filepath.Join(loader.root, "internal", dir))
		if err != nil {
			t.Fatalf("Load(internal/%s): %v", dir, err)
		}
		for _, d := range Check(pkgs, []*Analyzer{MonoidPure}) {
			t.Errorf("internal/%s: %s", dir, d)
		}
		for _, pkg := range pkgs {
			if sup, _ := collectSuppressions(pkg.Fset, pkg.Files); len(sup) > 0 {
				t.Errorf("internal/%s carries lint:ignore suppression(s) in %d file(s); its merge paths must be clean without them", dir, len(sup))
			}
		}
	}
}
