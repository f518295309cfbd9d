package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// A Fact is a serializable per-object or per-package summary an analyzer
// computes in one package and consumes in another — the interprocedural
// layer of the suite. Fact types must be pointers to JSON-marshalable
// structs and must be listed in the producing Analyzer's FactTypes so the
// driver knows the analyzer participates in cross-package propagation
// (and therefore must run over dependencies, not just vet targets).
//
// Propagation follows the build graph: the unitchecker computes facts
// during the go command's VetxOnly dependency runs, reading importers'
// facts from the PackageVetx files and re-exporting the merged set via
// VetxOutput so transitive facts flow.
type Fact interface{ AFact() }

// encodedFact is the wire form of one fact, stable across processes.
type encodedFact struct {
	Analyzer string          `json:"analyzer"`
	Pkg      string          `json:"pkg"`
	Object   string          `json:"object,omitempty"` // "" = package-level fact
	Type     string          `json:"type"`
	Data     json.RawMessage `json:"data"`
}

type factKey struct{ analyzer, pkg, object, typ string }

// A FactSet is the fact store of one run: the unit under analysis plus
// the decoded facts of its dependencies (in analysistest, every fixture
// package loaded so far).
type FactSet struct {
	mu sync.Mutex
	m  map[factKey]json.RawMessage
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet { return &FactSet{m: make(map[factKey]json.RawMessage)} }

// Merge decodes one facts file (as written by Encode) into the set.
// Empty input is a valid empty set.
func (s *FactSet) Merge(data []byte) error {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil
	}
	var facts []encodedFact
	if err := json.Unmarshal(data, &facts); err != nil {
		return fmt.Errorf("decoding facts: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range facts {
		s.m[factKey{f.Analyzer, f.Pkg, f.Object, f.Type}] = f.Data
	}
	return nil
}

// Encode serializes the set deterministically (sorted by key).
func (s *FactSet) Encode() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	facts := make([]encodedFact, 0, len(s.m))
	for k, data := range s.m {
		facts = append(facts, encodedFact{Analyzer: k.analyzer, Pkg: k.pkg, Object: k.object, Type: k.typ, Data: data})
	}
	sort.Slice(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	return json.Marshal(facts)
}

func (s *FactSet) set(k factKey, fact Fact) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.m[k] = data
	s.mu.Unlock()
	return nil
}

func (s *FactSet) get(k factKey, fact Fact) bool {
	s.mu.Lock()
	data, ok := s.m[k]
	s.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}

func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// objectFactPath maps a package-level object or method to its stable
// cross-process key: "Name" for package-level functions/vars/types,
// "Recv.Name" for methods. Local objects have no fact identity.
func objectFactPath(obj types.Object) (pkg, path string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	if fn, isFn := obj.(*types.Func); isFn {
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			named, okN := NamedOf(sig.Recv().Type())
			if !okN {
				return "", "", false
			}
			return obj.Pkg().Path(), named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// ExportObjectFact records fact for obj (a package-level object or method
// of any package — typically the one being analyzed). No-op for objects
// without a stable identity (locals).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	pkg, path, ok := objectFactPath(obj)
	if !ok || p.facts == nil {
		return
	}
	p.facts.set(factKey{p.Analyzer.Name, pkg, path, factTypeName(fact)}, fact)
}

// ImportObjectFact decodes the fact recorded for obj into fact, reporting
// whether one was found. fact must be the same pointer type that was
// exported.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	pkg, path, ok := objectFactPath(obj)
	if !ok || p.facts == nil {
		return false
	}
	return p.facts.get(factKey{p.Analyzer.Name, pkg, path, factTypeName(fact)}, fact)
}

// ExportPackageFact records fact for the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	if p.facts == nil {
		return
	}
	p.facts.set(factKey{p.Analyzer.Name, p.Pkg.Path(), "", factTypeName(fact)}, fact)
}

// ImportPackageFact decodes the package-level fact of pkgPath into fact.
func (p *Pass) ImportPackageFact(pkgPath string, fact Fact) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.get(factKey{p.Analyzer.Name, pkgPath, "", factTypeName(fact)}, fact)
}

// AllPackageFacts decodes every package-level fact of prototype's type
// recorded by this analyzer across all packages in the set (dependencies
// included), keyed by package path. prototype is not mutated; each value
// is a freshly allocated fact of the same type.
func (p *Pass) AllPackageFacts(prototype Fact) map[string]Fact {
	out := make(map[string]Fact)
	if p.facts == nil {
		return out
	}
	typ := factTypeName(prototype)
	rt := reflect.TypeOf(prototype)
	if rt.Kind() == reflect.Pointer {
		rt = rt.Elem()
	}
	p.facts.mu.Lock()
	keys := make([]factKey, 0, len(p.facts.m))
	for k := range p.facts.m {
		if k.analyzer == p.Analyzer.Name && k.object == "" && k.typ == typ {
			keys = append(keys, k)
		}
	}
	p.facts.mu.Unlock()
	for _, k := range keys {
		fact := reflect.New(rt).Interface().(Fact)
		if p.facts.get(k, fact) {
			out[k.pkg] = fact
		}
	}
	return out
}
