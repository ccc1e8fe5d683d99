package cachestore

import (
	"encoding/binary"
	"math"
)

// Record payloads are versioned varint streams behind the entry frame's
// checksum. The decoders are defensive anyway — the fuzz target feeds
// them raw attacker-controlled bytes — so every length is bounded and a
// malformed stream yields ErrCorrupt, never a panic or a giant
// allocation.

const (
	resultRecordVersion = 1
	// maxRecordElems bounds every decoded slice length: the service caps
	// problems at 1024 qubits, so no honest record comes near it.
	maxRecordElems = 1 << 22
)

// ResultRecord is a compiled circuit in its problem's canonical frame:
// enough to rebuild the exact Result a fresh compile would produce after
// translating back through the request's canonical permutation.
type ResultRecord struct {
	Source         string
	NQubits        int // logical qubit count of the problem
	SelectedPrefix int
	Degraded       bool
	Initial        []int
	Final          []int
	Gates          []GateRecord
}

// GateRecord is one circuit gate: physical operands, the recorded angle,
// and the logical interaction tag (canonical-frame vertex ids).
type GateRecord struct {
	Kind   int
	Q0, Q1 int
	Angle  float64
	TagU   int
	TagV   int
	Tagged bool
}

// EncodeResult serializes r.
func EncodeResult(r *ResultRecord) []byte {
	w := []byte{resultRecordVersion}
	w = appendString(w, r.Source)
	w = binary.AppendVarint(w, int64(r.NQubits))
	w = binary.AppendVarint(w, int64(r.SelectedPrefix))
	w = appendBool(w, r.Degraded)
	w = appendIntSlice(w, r.Initial)
	w = appendIntSlice(w, r.Final)
	w = binary.AppendUvarint(w, uint64(len(r.Gates)))
	for _, g := range r.Gates {
		w = binary.AppendVarint(w, int64(g.Kind))
		w = binary.AppendVarint(w, int64(g.Q0))
		w = binary.AppendVarint(w, int64(g.Q1))
		w = binary.LittleEndian.AppendUint64(w, math.Float64bits(g.Angle))
		w = binary.AppendVarint(w, int64(g.TagU))
		w = binary.AppendVarint(w, int64(g.TagV))
		w = appendBool(w, g.Tagged)
	}
	return w
}

// minGateBytes is the shortest encoding of one gate: six one-byte varints
// and bools plus the 8-byte angle. A declared gate count the remaining
// payload cannot hold is rejected before anyone sizes storage by it.
const minGateBytes = 14

// DecodeResult parses an EncodeResult payload.
func DecodeResult(b []byte) (*ResultRecord, error) {
	out, gates, err := DecodeResultGates(b)
	if err != nil {
		return nil, err
	}
	if gates.Len() > 0 {
		out.Gates = make([]GateRecord, gates.Len())
		for i := range out.Gates {
			if !gates.Next(&out.Gates[i]) {
				break
			}
		}
	}
	if err := gates.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeResultGates parses an EncodeResult payload up to its gate list and
// returns the record (Gates nil) with a reader over the gates, so a
// caller can decode them straight into its own representation. The
// payload is only fully validated once the reader's Err reports nil.
func DecodeResultGates(b []byte) (*ResultRecord, GateReader, error) {
	r := reader{b: b}
	if r.byte() != resultRecordVersion {
		return nil, GateReader{}, ErrCorrupt
	}
	out := &ResultRecord{
		Source:         r.str(),
		NQubits:        r.int(),
		SelectedPrefix: r.int(),
		Degraded:       r.bool(),
		Initial:        r.intSlice(),
		Final:          r.intSlice(),
	}
	n := r.length()
	if r.failed || n > len(r.b)/minGateBytes {
		return nil, GateReader{}, ErrCorrupt
	}
	return out, GateReader{r: r, n: n}, nil
}

// GateReader yields a result record's gates in order.
type GateReader struct {
	r    reader
	n, i int
}

// Len returns the declared gate count, already bounded by the payload
// size.
func (g *GateReader) Len() int { return g.n }

// Next decodes the next gate into gate and reports whether it did: false
// at the end of the list or on a malformed gate (Err tells which).
func (g *GateReader) Next(gate *GateRecord) bool {
	if g.i >= g.n || g.r.failed {
		return false
	}
	r := &g.r
	gate.Kind = r.int()
	gate.Q0 = r.int()
	gate.Q1 = r.int()
	gate.Angle = math.Float64frombits(r.uint64())
	gate.TagU = r.int()
	gate.TagV = r.int()
	gate.Tagged = r.bool()
	if r.failed {
		return false
	}
	g.i++
	return true
}

// Err returns ErrCorrupt unless every declared gate decoded and the
// payload ended exactly after the last one.
func (g *GateReader) Err() error {
	if g.i != g.n || !g.r.done() {
		return ErrCorrupt
	}
	return nil
}

// --- codec plumbing ---

func appendString(w []byte, s string) []byte {
	w = binary.AppendUvarint(w, uint64(len(s)))
	return append(w, s...)
}

func appendBool(w []byte, b bool) []byte {
	if b {
		return append(w, 1)
	}
	return append(w, 0)
}

func appendIntSlice(w []byte, xs []int) []byte {
	w = binary.AppendUvarint(w, uint64(len(xs)))
	for _, x := range xs {
		w = binary.AppendVarint(w, int64(x))
	}
	return w
}

// reader is a failure-latching varint cursor: after any malformed or
// truncated read every subsequent accessor returns a zero value and
// failed stays set, so decoders can check once per loop instead of
// per field.
type reader struct {
	b      []byte
	failed bool
}

func (r *reader) fail() {
	r.failed = true
	r.b = nil
}

func (r *reader) byte() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int { return int(r.varint()) }

func (r *reader) uint64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) bool() bool { return r.byte() == 1 }

// length reads a slice length, bounding it to keep hostile payloads from
// driving huge allocations.
func (r *reader) length() int {
	v := r.uvarint()
	if v > maxRecordElems {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.length()
	if r.failed || len(r.b) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) intSlice() []int {
	n := r.length()
	if r.failed || n == 0 {
		return nil
	}
	out := make([]int, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		out = append(out, r.int())
		if r.failed {
			return nil
		}
	}
	return out
}

// done reports a fully consumed, error-free stream.
func (r *reader) done() bool { return !r.failed && len(r.b) == 0 }
