package ast

import "bytes"

// CmpOp is one of the six dense-order comparison predicates.
type CmpOp uint8

const (
	LT CmpOp = iota // <
	LE              // <=
	GT              // >
	GE              // >=
	EQ              // =
	NE              // !=
)

// String renders the operator in source syntax.
func (op CmpOp) String() string {
	switch op {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "!="
	}
}

// Negate returns the complementary operator over a total dense order:
// ¬(x < y) ⇔ x >= y, ¬(x = y) ⇔ x != y, and so on.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	case EQ:
		return NE
	default:
		return EQ
	}
}

// Flip returns the operator with its operands swapped:
// x < y ⇔ y > x, x = y ⇔ y = x.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return op // EQ and NE are symmetric
	}
}

// Cmp is an order atom γ θ δ where γ and δ are terms (variables or
// constants) and θ is a comparison predicate over a dense total order.
type Cmp struct {
	Op          CmpOp
	Left, Right Term
}

// NewCmp builds an order atom.
func NewCmp(l Term, op CmpOp, r Term) Cmp { return Cmp{Op: op, Left: l, Right: r} }

// Negate returns the complementary order atom.
func (c Cmp) Negate() Cmp { return Cmp{Op: c.Op.Negate(), Left: c.Left, Right: c.Right} }

// Flip returns the same constraint with operands swapped.
func (c Cmp) Flip() Cmp { return Cmp{Op: c.Op.Flip(), Left: c.Right, Right: c.Left} }

// Vars appends the variables of c to dst (no duplicates) and returns dst.
func (c Cmp) Vars(dst []string) []string {
	if c.Left.IsVar() && !containsStr(dst, c.Left.Name) {
		dst = append(dst, c.Left.Name)
	}
	if c.Right.IsVar() && !containsStr(dst, c.Right.Name) {
		dst = append(dst, c.Right.Name)
	}
	return dst
}

// Equal reports structural equality.
func (c Cmp) Equal(d Cmp) bool {
	return c.Op == d.Op && c.Left.Equal(d.Left) && c.Right.Equal(d.Right)
}

// Eval evaluates the comparison on two constant terms. It panics if
// either side is a variable.
func (c Cmp) Eval() bool { return c.Op.Holds(c.Left.Compare(c.Right)) }

// Holds reports whether op holds between two values whose comparison
// (negative, zero or positive, as from Term.Compare) is cmp.
func (op CmpOp) Holds(cmp int) bool {
	switch op {
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	case GE:
		return cmp >= 0
	case EQ:
		return cmp == 0
	default:
		return cmp != 0
	}
}

// Key returns a canonical key for the comparison. The key normalizes
// operand order for the symmetric operators and orients < / <= left to
// right, so x > y and y < x share a key.
func (c Cmp) Key() string {
	var buf [48]byte
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends the comparison's Key to dst and returns the
// extended buffer.
func (c Cmp) AppendKey(dst []byte) []byte {
	n := c.normalize()
	dst = n.Left.AppendKey(dst)
	dst = append(dst, n.Op.String()...)
	return n.Right.AppendKey(dst)
}

// normalize orients the comparison: GT/GE become LT/LE with flipped
// operands, and symmetric operators order operands by Key.
func (c Cmp) normalize() Cmp {
	switch c.Op {
	case GT, GE:
		return c.Flip()
	case EQ, NE:
		var l, r [24]byte
		if bytes.Compare(c.Left.AppendKey(l[:0]), c.Right.AppendKey(r[:0])) > 0 {
			return c.Flip()
		}
	}
	return c
}

// String renders the order atom in source syntax.
func (c Cmp) String() string {
	var w writer
	w.cmp(c)
	return w.String()
}

// CmpsKey returns a canonical order-insensitive key for a set of order
// atoms.
func CmpsKey(cs []Cmp) string {
	return sortedKeys(cs, Cmp.AppendKey)
}
