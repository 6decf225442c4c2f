package perfbench

import (
	"reflect"
	"regexp"
	"testing"
)

// BenchmarkCatalog runs every b.N-shaped catalog entry under its catalog
// name, e.g. go test -bench 'Catalog/remote-star-broadcast-64' ./internal/perfbench.
func BenchmarkCatalog(b *testing.B) { catalog(b.Run) }

// catalog hands each b.N-shaped entry's body to run under the entry's name.
func catalog(run func(name string, body func(*testing.B)) bool) {
	for _, s := range Suite() {
		if s.Bench != nil {
			run(s.Name, s.Bench)
		}
	}
}

// TestCatalog checks the catalog's keys: names are unique, none is an
// E-number (those name only the paper's claims), every entry is
// measurable, and BenchmarkCatalog runs each b.N-shaped entry's own body
// under the entry's name.
func TestCatalog(t *testing.T) {
	eNumber := regexp.MustCompile(`(?i)\be[0-9]+\b`)
	seen := map[string]bool{}
	for _, s := range Suite() {
		if seen[s.Name] {
			t.Errorf("duplicate entry name %q", s.Name)
		}
		seen[s.Name] = true
		if eNumber.MatchString(s.Name) {
			t.Errorf("entry name %q carries an E-number", s.Name)
		}
		if s.Bench == nil && s.run == nil {
			t.Errorf("entry %q has nothing to run", s.Name)
		}
	}

	ran := map[string]uintptr{}
	catalog(func(name string, body func(*testing.B)) bool {
		if _, dup := ran[name]; dup {
			t.Errorf("BenchmarkCatalog runs %q twice", name)
		}
		ran[name] = reflect.ValueOf(body).Pointer()
		return true
	})
	want := 0
	for _, s := range Suite() {
		if s.Bench == nil {
			continue
		}
		want++
		if got, ok := ran[s.Name]; !ok {
			t.Errorf("BenchmarkCatalog does not run %q", s.Name)
		} else if got != reflect.ValueOf(s.Bench).Pointer() {
			t.Errorf("BenchmarkCatalog/%s runs another body than the entry's", s.Name)
		}
	}
	if len(ran) != want {
		t.Errorf("BenchmarkCatalog runs %d bodies, the catalog has %d b.N-shaped entries", len(ran), want)
	}
}
