// Package catalog is the name registry of temporal-probabilistic relations
// plus their persistence: CSV here, the lineage-preserving binary format
// in binary.go. Structures derived from a relation (statistics, join
// build sides) live on the relation itself (tp.Relation.Derived), not
// here. The CSV layout is one row per tuple:
//
//	attr1,...,attrN,tstart,tend,prob
//
// with a header row naming the fact attributes followed by the fixed
// columns Tstart, Tend, P. A NULL attribute is written as \N, PostgreSQL's
// text-format marker. Loading assigns fresh base-event variables in file
// order, exactly like Relation.Append.
package catalog

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

// Catalog is a registry of named relations. It is safe for concurrent use
// by multiple sessions: the name → relation map is guarded by an RWMutex
// and registration replaces relations wholesale (pointer swap), so a
// *tp.Relation obtained from Lookup is a stable snapshot — readers holding
// it are unaffected by a later CREATE TABLE or drop of the same name.
// Relations must therefore be treated as immutable once registered;
// Register copies nothing, it publishes the pointer.
type Catalog struct {
	mu   sync.RWMutex
	rels map[string]*tp.Relation
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{rels: make(map[string]*tp.Relation)}
}

// Register adds (or replaces) a relation under its name. The relation must
// satisfy the sequenced-TP integrity constraint. Validation runs outside
// the lock: the relation is not yet shared.
func (c *Catalog) Register(rel *tp.Relation) error {
	if rel.Name == "" {
		return fmt.Errorf("catalog: relation has no name")
	}
	if err := rel.ValidateSequenced(); err != nil {
		return fmt.Errorf("catalog: refusing to register %s: %w", rel.Name, err)
	}
	c.mu.Lock()
	c.rels[rel.Name] = rel
	c.mu.Unlock()
	return nil
}

// Lookup returns the relation with the given name. The returned relation
// is a stable snapshot: concurrent re-registration under the same name
// swaps the map entry but never mutates a published relation.
func (c *Catalog) Lookup(name string) (*tp.Relation, error) {
	c.mu.RLock()
	rel, ok := c.rels[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q (have %v)", name, c.Names())
	}
	return rel, nil
}

// Names lists the registered relation names in sorted order. The slice is
// a copy and remains valid after concurrent catalog changes.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Drop removes a relation; it reports whether the relation existed.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	_, ok := c.rels[name]
	delete(c.rels, name)
	c.mu.Unlock()
	return ok
}

// nullCSV is the CSV field that stands for NULL.
const nullCSV = `\N`

// WriteCSV writes rel to w. It fails on the one text value it could not
// read back as written: the NULL marker itself.
func WriteCSV(w io.Writer, rel *tp.Relation) error {
	cw := csv.NewWriter(w)
	header := append(append([]string(nil), rel.Attrs...), "Tstart", "Tend", "P")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, t := range rel.Tuples {
		for i, v := range t.Fact {
			switch {
			case v.IsNull():
				row[i] = nullCSV
			case v.AsString() == nullCSV:
				return fmt.Errorf("catalog: text value %s would read back as NULL", nullCSV)
			default:
				// The reader folds every CRLF line end to LF, inside
				// quoted fields too; a doubled CR folds back to CRLF.
				row[i] = strings.ReplaceAll(v.AsString(), "\r\n", "\r\r\n")
			}
		}
		n := len(rel.Attrs)
		row[n] = strconv.FormatInt(t.T.Start, 10)
		row[n+1] = strconv.FormatInt(t.T.End, 10)
		row[n+2] = strconv.FormatFloat(t.Prob, 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes rel to the named file.
func SaveCSV(path string, rel *tp.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, rel); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCSV reads a relation named name from r. Fact attributes are text,
// except that a \N field is NULL; the trailing three columns are start,
// end and probability.
func ReadCSV(rd io.Reader, name string) (*tp.Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("catalog: reading header: %w", err)
	}
	if len(header) < 4 {
		return nil, fmt.Errorf("catalog: header needs at least one attribute plus Tstart,Tend,P, got %v", header)
	}
	attrs := header[:len(header)-3]
	rel := tp.NewRelation(name, attrs...)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("catalog: line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("catalog: line %d: %d fields, want %d", line, len(rec), len(header))
		}
		n := len(attrs)
		start, err := strconv.ParseInt(rec[n], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("catalog: line %d: bad Tstart %q", line, rec[n])
		}
		end, err := strconv.ParseInt(rec[n+1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("catalog: line %d: bad Tend %q", line, rec[n+1])
		}
		if start >= end {
			return nil, fmt.Errorf("catalog: line %d: empty interval [%d,%d)", line, start, end)
		}
		p, err := strconv.ParseFloat(rec[n+2], 64)
		if err != nil || !tp.IsProb(p) {
			return nil, fmt.Errorf("catalog: line %d: bad probability %q", line, rec[n+2])
		}
		fact := make(tp.Fact, n)
		for i := 0; i < n; i++ {
			if rec[i] != nullCSV {
				fact[i] = tp.String_(rec[i])
			}
		}
		rel.Append(fact, interval.New(start, end), p)
	}
	return rel, nil
}

// LoadCSV reads the named file into a relation called name.
func LoadCSV(path, name string) (*tp.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, name)
}
