package circuit

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteQASM emits the circuit as OpenQASM 2.0 after decomposition into the
// CX + {H, RX, RZ} basis, so the output runs on any QASM toolchain. The
// decomposition is streamed, never materialised. A gate Append would reject
// panics before anything is written.
func (c *Circuit) WriteQASM(w io.Writer) error {
	c.Decomposed(func(Gate) bool { return true }) // validate before writing
	if _, err := fmt.Fprintf(w, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", c.NQubits); err != nil {
		return err
	}
	var err error
	c.Decomposed(func(g Gate) bool {
		switch g.Kind {
		case GateH:
			_, err = fmt.Fprintf(w, "h q[%d];\n", g.Q0)
		case GateRX:
			_, err = fmt.Fprintf(w, "rx(%.12g) q[%d];\n", g.Angle, g.Q0)
		case GateRZ:
			_, err = fmt.Fprintf(w, "rz(%.12g) q[%d];\n", g.Angle, g.Q0)
		case GateCNOT:
			_, err = fmt.Fprintf(w, "cx q[%d],q[%d];\n", g.Q0, g.Q1)
		default:
			err = fmt.Errorf("circuit: %v survived decomposition", g.Kind)
		}
		return err == nil
	})
	return err
}

// maxQASMQubits bounds qreg declarations so a malformed or hostile input
// cannot request an absurd allocation. Far above any real device.
const maxQASMQubits = 1 << 20

// ParseQASM reads an OpenQASM 2.0 circuit in the decomposed gate set this
// package emits (h, rx, rz, cx over one qreg). Every malformed construct —
// bad header, unknown statement, out-of-range qubit, non-finite angle — is
// a returned error, never a panic: this is a user-input boundary (see the
// panic-audit rule in DESIGN.md). ParseQASM is the inverse of WriteQASM up
// to angle formatting, which the fuzz round-trip test pins down.
func ParseQASM(r io.Reader) (*Circuit, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Strip // comments, then split on ';' — QASM statements are
	// semicolon-terminated and newlines are insignificant.
	var clean strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	var (
		c       *Circuit
		reg     string
		sawHdr  bool
		stmtNum int
	)
	for _, raw := range strings.Split(clean.String(), ";") {
		stmt := strings.TrimSpace(raw)
		if stmt == "" {
			continue
		}
		stmtNum++
		fail := func(format string, args ...any) error {
			return fmt.Errorf("qasm: statement %d (%q): %s", stmtNum, stmt, fmt.Sprintf(format, args...))
		}
		if !sawHdr {
			if stmt != "OPENQASM 2.0" {
				return nil, fail("expected OPENQASM 2.0 header")
			}
			sawHdr = true
			continue
		}
		if strings.HasPrefix(stmt, "include ") {
			continue
		}
		if rest, ok := strings.CutPrefix(stmt, "qreg "); ok {
			if c != nil {
				return nil, fail("multiple qreg declarations")
			}
			name, n, err := parseReg(rest)
			if err != nil {
				return nil, fail("%v", err)
			}
			if n < 1 || n > maxQASMQubits {
				return nil, fail("qreg size %d out of range [1,%d]", n, maxQASMQubits)
			}
			reg, c = name, New(n)
			continue
		}
		if c == nil {
			return nil, fail("gate before qreg declaration")
		}
		op := stmt
		args := ""
		if i := strings.IndexAny(stmt, " ("); i >= 0 {
			op, args = stmt[:i], strings.TrimSpace(stmt[i:])
		}
		switch op {
		case "h":
			q, err := parseOperands(args, reg, c.NQubits, 1)
			if err != nil {
				return nil, fail("%v", err)
			}
			c.Gates = append(c.Gates, Gate{Kind: GateH, Q0: q[0], Q1: -1})
		case "rx", "rz":
			angle, operands, err := parseAngled(args)
			if err != nil {
				return nil, fail("%v", err)
			}
			q, err := parseOperands(operands, reg, c.NQubits, 1)
			if err != nil {
				return nil, fail("%v", err)
			}
			kind := GateRX
			if op == "rz" {
				kind = GateRZ
			}
			c.Gates = append(c.Gates, Gate{Kind: kind, Q0: q[0], Q1: -1, Angle: angle})
		case "cx":
			q, err := parseOperands(args, reg, c.NQubits, 2)
			if err != nil {
				return nil, fail("%v", err)
			}
			if q[0] == q[1] {
				return nil, fail("cx with identical operands q[%d]", q[0])
			}
			c.Gates = append(c.Gates, Gate{Kind: GateCNOT, Q0: q[0], Q1: q[1]})
		default:
			return nil, fail("unsupported operation %q", op)
		}
	}
	if !sawHdr {
		return nil, fmt.Errorf("qasm: empty input")
	}
	if c == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration")
	}
	return c, nil
}

// parseReg parses `name[N]`.
func parseReg(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '[')
	if open <= 0 || !strings.HasSuffix(s, "]") {
		return "", 0, fmt.Errorf("malformed register %q", s)
	}
	n, err := strconv.Atoi(s[open+1 : len(s)-1])
	if err != nil {
		return "", 0, fmt.Errorf("malformed register size in %q", s)
	}
	return s[:open], n, nil
}

// parseAngled splits `(<angle>) <operands>` and validates the angle.
func parseAngled(s string) (float64, string, error) {
	if !strings.HasPrefix(s, "(") {
		return 0, "", fmt.Errorf("missing angle")
	}
	close := strings.IndexByte(s, ')')
	if close < 0 {
		return 0, "", fmt.Errorf("unterminated angle")
	}
	angle, err := strconv.ParseFloat(strings.TrimSpace(s[1:close]), 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad angle %q", s[1:close])
	}
	if math.IsNaN(angle) || math.IsInf(angle, 0) {
		return 0, "", fmt.Errorf("non-finite angle %v", angle)
	}
	return angle, strings.TrimSpace(s[close+1:]), nil
}

// parseOperands parses `reg[i]` or `reg[i],reg[j]` and range-checks.
func parseOperands(s, reg string, nQubits, want int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("want %d operand(s), got %q", want, s)
	}
	out := make([]int, len(parts))
	for i, part := range parts {
		name, q, err := parseReg(part)
		if err != nil {
			return nil, err
		}
		if name != reg {
			return nil, fmt.Errorf("unknown register %q", name)
		}
		if q < 0 || q >= nQubits {
			return nil, fmt.Errorf("qubit %d out of range [0,%d)", q, nQubits)
		}
		out[i] = q
	}
	return out, nil
}
