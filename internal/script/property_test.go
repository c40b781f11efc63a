package script

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// exprNode is a random arithmetic expression tree used for differential
// testing: the same tree is rendered to PipeScript source and evaluated
// natively in Go; both results must agree.
type exprTree struct {
	op          byte // '+', '-', '*', 'n' (leaf), 'm' (min), 'x' (max)
	left, right *exprTree
	value       float64
}

func genTree(rng *rand.Rand, depth int) *exprTree {
	if depth <= 0 || rng.Intn(3) == 0 {
		// Small integer leaves keep float arithmetic exact.
		return &exprTree{op: 'n', value: float64(rng.Intn(41) - 20)}
	}
	ops := []byte{'+', '-', '*', 'm', 'x'}
	return &exprTree{
		op:    ops[rng.Intn(len(ops))],
		left:  genTree(rng, depth-1),
		right: genTree(rng, depth-1),
	}
}

func (t *exprTree) render() string {
	switch t.op {
	case 'n':
		if t.value < 0 {
			return fmt.Sprintf("(%g)", t.value)
		}
		return fmt.Sprintf("%g", t.value)
	case 'm':
		return fmt.Sprintf("min(%s, %s)", t.left.render(), t.right.render())
	case 'x':
		return fmt.Sprintf("max(%s, %s)", t.left.render(), t.right.render())
	default:
		return fmt.Sprintf("(%s %c %s)", t.left.render(), t.op, t.right.render())
	}
}

func (t *exprTree) eval() float64 {
	switch t.op {
	case 'n':
		return t.value
	case '+':
		return t.left.eval() + t.right.eval()
	case '-':
		return t.left.eval() - t.right.eval()
	case '*':
		return t.left.eval() * t.right.eval()
	case 'm':
		return math.Min(t.left.eval(), t.right.eval())
	case 'x':
		return math.Max(t.left.eval(), t.right.eval())
	default:
		panic("unreachable")
	}
}

func TestDifferentialArithmetic(t *testing.T) {
	// Property: PipeScript evaluates randomly generated arithmetic trees
	// identically to Go.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := genTree(rng, 5)
		want := tree.eval()
		got, err := evalIn(NewContext(), tree.render())
		if err != nil {
			t.Logf("seed %d: %q -> error %v", seed, tree.render(), err)
			return false
		}
		n, ok := got.(float64)
		if !ok {
			return false
		}
		return n == want || math.Abs(n-want) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDifferentialComparisons(t *testing.T) {
	// Property: comparison of two generated trees agrees with Go.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genTree(rng, 3)
		b := genTree(rng, 3)
		ops := []string{"<", "<=", ">", ">=", "==", "!="}
		op := ops[rng.Intn(len(ops))]
		src := fmt.Sprintf("(%s) %s (%s)", a.render(), op, b.render())
		got, err := evalIn(NewContext(), src)
		if err != nil {
			return false
		}
		av, bv := a.eval(), b.eval()
		var want bool
		switch op {
		case "<":
			want = av < bv
		case "<=":
			want = av <= bv
		case ">":
			want = av > bv
		case ">=":
			want = av >= bv
		case "==":
			want = av == bv
		case "!=":
			want = av != bv
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParserNeverPanicsOnRandomInput(t *testing.T) {
	// Property: arbitrary byte soup produces an error or a value, never a
	// panic or a hang (the step budget bounds runaway evaluation).
	check := func(raw []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on input %q: %v", raw, r)
				ok = false
			}
		}()
		c := NewContext()
		c.SetLimits(Limits{Instructions: 100_000})
		_ = c.Load(string(raw))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParserNeverPanicsOnMutatedPrograms(t *testing.T) {
	// Mutate a valid program by deleting random spans; parsing must stay
	// panic-free.
	base := `
		var total = 0;
		function f(a, b) {
			var out = [];
			for (var i = 0; i < a; i++) {
				if (i % 2 == 0) { push(out, i * b); } else { continue; }
			}
			return out;
		}
		for (x of f(10, 3)) { total += x; }
		try { throw {code: total}; } catch (e) { total = e.code; }
		total
	`
	check := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		src := base
		for k := 0; k < 3; k++ {
			if len(src) < 4 {
				break
			}
			i := rng.Intn(len(src) - 1)
			j := i + 1 + rng.Intn(minInt(20, len(src)-i-1))
			src = src[:i] + src[j:]
		}
		c := NewContext()
		c.SetLimits(Limits{Instructions: 100_000})
		_ = c.Load(src)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestStringConcatAssociativity(t *testing.T) {
	// Property: rendering values through string concatenation in script
	// matches Stringify-based concatenation in Go.
	check := func(parts []int16) bool {
		if len(parts) == 0 {
			return true
		}
		var src strings.Builder
		src.WriteString(`""`)
		var want strings.Builder
		for _, p := range parts {
			fmt.Fprintf(&src, " + (%d)", p)
			fmt.Fprintf(&want, "%d", p)
		}
		got, err := evalIn(NewContext(), src.String())
		return err == nil && got == want.String()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSortedArrayProperty(t *testing.T) {
	// Property: sort() output is a sorted permutation of its input.
	check := func(values []int8) bool {
		c := NewContext()
		arr := &Array{}
		counts := map[float64]int{}
		for _, v := range values {
			arr.Elems = append(arr.Elems, float64(v))
			counts[float64(v)]++
		}
		if err := c.Load("function f(input) { return sort(input); }"); err != nil {
			return false
		}
		out, err := c.Call("f", arr)
		if err != nil {
			return false
		}
		sorted, ok := out.(*Array)
		if !ok || len(sorted.Elems) != len(values) {
			return false
		}
		prev := math.Inf(-1)
		for _, e := range sorted.Elems {
			n, ok := e.(float64)
			if !ok || n < prev {
				return false
			}
			prev = n
			counts[n]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
