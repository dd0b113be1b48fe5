package catalog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// Binary relation format (.tpr): unlike CSV, it round-trips *derived*
// relations — full lineage expressions, NULL attribute values and the
// base-event probability map.
//
// Layout (integers little-endian fixed or uvarint as noted):
//
//	magic    "TPR1"
//	name     uvarint len + bytes
//	attrs    uvarint count, each uvarint len + bytes
//	probs    uvarint count, each: rel name (uvarint len + bytes),
//	         uvarint id, float64 bits
//	tuples   uvarint count, each:
//	           fact values, each a tag byte: 0 = NULL, or
//	             3 = text, then uvarint len + bytes
//	             (any other tag, 1 and 2 included, is an error)
//	           int64 start, int64 end (varint, zig-zag)
//	           float64 prob bits
//	           lineage (lineage.Encoder framing, shared dictionary)

const binaryMagic = "TPR1"

// SaveBinary writes rel to the named file in the binary format.
func SaveBinary(path string, rel *tp.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := WriteBinary(w, rel); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinary reads a relation from the named file.
func LoadBinary(path string) (*tp.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(bufio.NewReader(f))
}

// WriteBinary serializes rel to w.
func WriteBinary(w io.Writer, rel *tp.Relation) error {
	if _, err := io.WriteString(w, binaryMagic); err != nil {
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(w, uint64(len(s))); err != nil {
			return err
		}
		_, err := io.WriteString(w, s)
		return err
	}
	if err := writeString(rel.Name); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(rel.Attrs))); err != nil {
		return err
	}
	for _, a := range rel.Attrs {
		if err := writeString(a); err != nil {
			return err
		}
	}
	// Probability map, sorted for deterministic output.
	vars := make([]lineage.Var, 0, len(rel.Probs))
	for v := range rel.Probs {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Less(vars[j]) })
	if err := writeUvarint(w, uint64(len(vars))); err != nil {
		return err
	}
	for _, v := range vars {
		if err := writeString(v.Rel); err != nil {
			return err
		}
		if err := writeUvarint(w, uint64(v.ID)); err != nil {
			return err
		}
		if err := writeFloat(w, rel.Probs[v]); err != nil {
			return err
		}
	}
	if err := writeUvarint(w, uint64(len(rel.Tuples))); err != nil {
		return err
	}
	enc := lineage.NewEncoder(w)
	for i := range rel.Tuples {
		t := &rel.Tuples[i]
		if len(t.Fact) != len(rel.Attrs) {
			return fmt.Errorf("catalog: tuple %d arity %d != schema %d", i, len(t.Fact), len(rel.Attrs))
		}
		for _, v := range t.Fact {
			if err := writeValue(w, v); err != nil {
				return err
			}
		}
		if err := writeVarint(w, t.T.Start); err != nil {
			return err
		}
		if err := writeVarint(w, t.T.End); err != nil {
			return err
		}
		if err := writeFloat(w, t.Prob); err != nil {
			return err
		}
		if t.Lineage == nil {
			return fmt.Errorf("catalog: tuple %d has nil lineage", i)
		}
		if err := enc.Encode(t.Lineage); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary deserializes a relation from r.
func ReadBinary(r io.Reader) (*tp.Relation, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		return nil, fmt.Errorf("catalog: reader must implement io.ByteReader (wrap in bufio.Reader)")
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("catalog: bad magic %q", magic)
	}
	// Every count below comes from the input: slices grow as elements
	// arrive instead of being presized, so a short file cannot demand more
	// memory than it holds.
	name, err := readString(r, br, 1<<20)
	if err != nil {
		return nil, err
	}
	nAttrs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	var attrs []string
	for i := uint64(0); i < nAttrs; i++ {
		a, err := readString(r, br, 1<<20)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a)
	}
	rel := &tp.Relation{Name: name, Attrs: attrs, Probs: make(prob.Probs)}
	nProbs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nProbs; i++ {
		relName, err := readString(r, br, 1<<20)
		if err != nil {
			return nil, err
		}
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		p, err := readFloat(r)
		if err != nil {
			return nil, err
		}
		v := lineage.Var{Rel: relName, ID: int(id)}
		if !tp.IsProb(p) {
			return nil, fmt.Errorf("catalog: base event %v has probability %g outside [0,1]", v, p)
		}
		rel.Probs[v] = p
	}
	nTuples, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	dec := lineage.NewDecoder(r)
	for i := uint64(0); i < nTuples; i++ {
		fact := make(tp.Fact, len(attrs))
		for j := range fact {
			if fact[j], err = readValue(r, br); err != nil {
				return nil, err
			}
		}
		start, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		end, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		if start >= end {
			return nil, fmt.Errorf("catalog: tuple %d has empty interval [%d,%d)", i, start, end)
		}
		p, err := readFloat(r)
		if err != nil {
			return nil, err
		}
		if !tp.IsProb(p) {
			return nil, fmt.Errorf("catalog: tuple %d has probability %g outside [0,1]", i, p)
		}
		lam, err := dec.Decode()
		if err != nil {
			return nil, err
		}
		rel.Tuples = append(rel.Tuples, tp.Tuple{
			Fact: fact, Lineage: lam,
			T: interval.New(start, end), Prob: p,
		})
	}
	return rel, nil
}

// --- value encoding: tag byte + payload ---

func writeValue(w io.Writer, v tp.Value) error {
	if v.IsNull() {
		_, err := w.Write([]byte{0})
		return err
	}
	if _, err := w.Write([]byte{3}); err != nil {
		return err
	}
	s := v.AsString()
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readValue(r io.Reader, br io.ByteReader) (tp.Value, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return tp.Value{}, err
	}
	switch tag {
	case 0:
		return tp.Null(), nil
	case 3:
		s, err := readString(r, br, 1<<24)
		if err != nil {
			return tp.Value{}, err
		}
		return tp.String_(s), nil
	default:
		return tp.Value{}, fmt.Errorf("catalog: unknown value tag %d", tag)
	}
}

// readString reads a uvarint length of at most max and that many bytes,
// copied as they arrive rather than into a buffer presized from the
// untrusted length.
func readString(r io.Reader, br io.ByteReader, max uint64) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > max {
		return "", fmt.Errorf("catalog: implausible string length %d", n)
	}
	var b strings.Builder
	if _, err := io.CopyN(&b, r, int64(n)); err != nil {
		return "", err
	}
	return b.String(), nil
}

func writeUvarint(w io.Writer, x uint64) error {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], x)
	_, err := w.Write(b[:n])
	return err
}

func writeVarint(w io.Writer, x int64) error {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], x)
	_, err := w.Write(b[:n])
	return err
}

func writeFloat(w io.Writer, f float64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	_, err := w.Write(b[:])
	return err
}

func readFloat(r io.Reader) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}
