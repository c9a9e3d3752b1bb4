package classifier_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hilti/internal/rt/classifier"
	"hilti/internal/rt/ruleplane"
	"hilti/internal/rt/values"
)

// The classifier's index is the shared rule plane: FromClassifier
// compiles the rules into its automaton, and linear Get is the oracle.
// These tests hold the two to the same answers on the cases an index gets
// wrong first: priority across nested prefixes, non-address columns, and
// IPv6 prefixes past the high word.

type index struct {
	auto  *ruleplane.Automaton
	rules []classifier.RuleView
}

// compileIndex compiles c's rules into the rule plane, mapping key
// column i to header field roles[i].
func compileIndex(t *testing.T, c *classifier.Classifier, roles ...ruleplane.FieldRole) *index {
	t.Helper()
	prog, err := ruleplane.FromClassifier(c, roles, "cls")
	if err != nil {
		t.Fatal(err)
	}
	auto, err := ruleplane.Compile([]ruleplane.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	return &index{auto: auto, rules: c.Rules()}
}

// lookup returns what Get would for the key h encodes: the winning
// rule's value, or ErrNoMatch.
func (ix *index) lookup(h ruleplane.Header) (values.Value, error) {
	v, m := make([]int64, 1), make([]int32, 1)
	ix.auto.Eval(&h, v, m)
	if v[0] < 0 {
		return values.Nil, classifier.ErrNoMatch
	}
	return ix.rules[v[0]].Val, nil
}

// agree looks key up both ways and fails unless the answers match; it
// returns the linear answer.
func agree(t *testing.T, c *classifier.Classifier, ix *index, h ruleplane.Header, key ...values.Value) (values.Value, error) {
	t.Helper()
	lv, lerr := c.Get(key...)
	iv, ierr := ix.lookup(h)
	if (lerr == nil) != (ierr == nil) || (lerr == nil && !values.Equal(lv, iv)) {
		t.Fatalf("key %v: linear %v/%v, indexed %v/%v", key, values.Format(lv), lerr, values.Format(iv), ierr)
	}
	return lv, lerr
}

// The linear and indexed matchers must agree on random rule sets.
func TestIndexedAgreesWithLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randNet := func() values.Value {
		a := values.AddrFromV4Uint(uint32(rng.Intn(1<<16) << 16))
		return values.NetVal(a, 8+rng.Intn(17))
	}
	field := func() classifier.Field {
		if rng.Intn(4) == 0 {
			return classifier.Wildcard{}
		}
		return classifier.NetField{Net: randNet()}
	}
	c := classifier.New(2)
	for i := 0; i < 50; i++ {
		if err := c.Add([]classifier.Field{field(), field()}, values.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Compile()
	ix := compileIndex(t, c, ruleplane.RoleSrcAddr, ruleplane.RoleDstAddr)
	for i := 0; i < 2000; i++ {
		k1 := values.AddrFromV4Uint(uint32(rng.Intn(1 << 24)))
		k2 := values.AddrFromV4Uint(uint32(rng.Intn(1 << 24)))
		agree(t, c, ix, ruleplane.HeaderFromAddrs(k1, k2, values.ProtoTCP, 0, 0), k1, k2)
	}
}

// TestRandomizedLinearIndexedEquivalence cross-validates the two matchers
// on small random tables mixing prefixes, wildcards and an exact
// protocol column: the indexed result must equal the linear scan's.
func TestRandomizedLinearIndexedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randNet := func() values.Value {
		plen := 8 + rng.Intn(25) // /8../32
		return values.MustParseNet(fmt.Sprintf("%d.%d.%d.%d/%d",
			10+rng.Intn(4), rng.Intn(4), rng.Intn(4), 0, plen))
	}
	randAddr := func() values.Value {
		return values.MustParseAddr(fmt.Sprintf("%d.%d.%d.%d",
			10+rng.Intn(4), rng.Intn(4), rng.Intn(4), rng.Intn(4)))
	}
	protos := []uint8{values.ProtoICMP, values.ProtoTCP, values.ProtoUDP}
	for trial := 0; trial < 50; trial++ {
		c := classifier.New(2)
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			var f0, f1 classifier.Field = classifier.Wildcard{}, classifier.Wildcard{}
			if rng.Intn(3) != 0 {
				f0 = classifier.NetField{Net: randNet()}
			}
			if rng.Intn(2) == 0 {
				f1 = classifier.ExactField{Val: values.Int(int64(protos[rng.Intn(3)]))}
			}
			if err := c.Add([]classifier.Field{f0, f1}, values.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		c.Compile()
		ix := compileIndex(t, c, ruleplane.RoleSrcAddr, ruleplane.RoleProto)
		for probe := 0; probe < 100; probe++ {
			a, p := randAddr(), protos[rng.Intn(3)]
			agree(t, c, ix, ruleplane.HeaderFromAddrs(a, a, p, 0, 0), a, values.Int(int64(p)))
		}
	}
}

func TestNonAddressFirstFieldStillIndexed(t *testing.T) {
	// Rules whose first column is not an address, in priority order.
	c := classifier.New(2)
	c.Add([]classifier.Field{classifier.ExactField{Val: values.Int(int64(values.ProtoUDP))}, classifier.Wildcard{}}, values.Int(100))
	c.Add([]classifier.Field{classifier.Wildcard{}, classifier.ExactField{Val: values.PortVal(53, values.ProtoTCP)}}, values.Int(200))
	c.Compile()
	ix := compileIndex(t, c, ruleplane.RoleProto, ruleplane.RoleDstPort)
	a := values.MustParseAddr("10.0.0.1")
	probe := func(proto uint8, port uint16) (values.Value, error) {
		return agree(t, c, ix, ruleplane.HeaderFromAddrs(a, a, proto, 9999, port),
			values.Int(int64(proto)), values.PortVal(port, proto))
	}
	if v, err := probe(values.ProtoUDP, 53); err != nil || v.AsInt() != 100 {
		t.Fatalf("got %v, %v; want first rule", v, err)
	}
	if v, err := probe(values.ProtoTCP, 53); err != nil || v.AsInt() != 200 {
		t.Fatalf("got %v, %v; want second rule", v, err)
	}
	if _, err := probe(values.ProtoTCP, 80); !errors.Is(err, classifier.ErrNoMatch) {
		t.Fatalf("want ErrNoMatch, got %v", err)
	}
}

func TestIPv6LongPrefixIndexed(t *testing.T) {
	// A /96 prefix reaches past bit 64 (the low word).
	c := classifier.New(1)
	c.AddValues(values.Int(1), values.MustParseNet("2001:db8::/96"))
	c.AddValues(values.Int(2), values.MustParseNet("2001:db8::/32"))
	c.Compile()
	ix := compileIndex(t, c, ruleplane.RoleSrcAddr)
	for _, p := range []struct {
		addr string
		want int64
	}{{"2001:db8::42", 1}, {"2001:db8:1::1", 2}} {
		a := values.MustParseAddr(p.addr)
		if v, err := agree(t, c, ix, ruleplane.HeaderFromAddrs(a, a, values.ProtoTCP, 0, 0), a); err != nil || v.AsInt() != p.want {
			t.Fatalf("%s: got %v, %v; want rule %d", p.addr, v, err, p.want)
		}
	}
}
