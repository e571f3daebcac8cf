package flow

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// notMatchable are the fields of Fields the control plane cannot match on:
// the datapath extracts them and megaflow masks may cover them, but a row
// holds at most 64 bits, so neither flow text nor OXM names them.
var notMatchable = []string{"IPv6Src", "IPv6Dst"}

// TestMatchFieldsCoverFields: every field of Fields has exactly one row of
// MatchFields or is listed in notMatchable, so a field added to Fields
// without a row fails here; and no two rows share a text name or an OXM id.
func TestMatchFieldsCoverFields(t *testing.T) {
	typ := reflect.TypeOf(Fields{})
	rowOf := map[string]int{}
	names := map[string]int{}
	type oxm struct {
		class uint16
		field uint8
	}
	ids := map[oxm]int{}
	for i := range MatchFields {
		r := &MatchFields[i]
		// Which struct field does the row's accessor write?
		var f Fields
		r.Set(&f, ^uint64(0))
		var touched []string
		for j := 0; j < typ.NumField(); j++ {
			if !reflect.ValueOf(f).Field(j).IsZero() {
				touched = append(touched, typ.Field(j).Name)
			}
		}
		if len(touched) != 1 {
			t.Fatalf("row %d (%q) writes fields %v, want exactly one", i, r.Name, touched)
		}
		if r.Get(&f) != r.Ones() {
			t.Errorf("row %d (%s): Get after Set(all ones) = %#x, want %#x", i, touched[0], r.Get(&f), r.Ones())
		}
		if prev, dup := rowOf[touched[0]]; dup {
			t.Errorf("rows %d and %d both access Fields.%s", prev, i, touched[0])
		}
		rowOf[touched[0]] = i

		if r.Name != "" {
			if prev, dup := names[r.Name]; dup {
				t.Errorf("rows %d and %d share the name %q", prev, i, r.Name)
			}
			names[r.Name] = i
			if MatchFieldByName(r.Name) != r {
				t.Errorf("MatchFieldByName(%q) is not row %d", r.Name, i)
			}
		}
		if r.Width*8 < r.bits {
			t.Errorf("row %d (%s): %d OXM bytes cannot hold %d bits", i, touched[0], r.Width, r.bits)
		}
		fields := []uint8{r.OXMField}
		if r.OXMAlt != 0 {
			fields = append(fields, r.OXMAlt)
		}
		for _, field := range fields {
			id := oxm{r.OXMClass, field}
			if prev, dup := ids[id]; dup {
				t.Errorf("rows %d and %d share OXM %#x/%d", prev, i, id.class, id.field)
			}
			ids[id] = i
			if MatchFieldByOXM(id.class, id.field) != r {
				t.Errorf("MatchFieldByOXM(%#x, %d) is not row %d", id.class, id.field, i)
			}
		}
	}
	if MatchFieldByName("") != nil || MatchFieldByOXM(OXMNXM0, 0) != nil {
		t.Error("the nameless row or an unnumbered field was found by lookup")
	}

	skip := map[string]bool{}
	for _, name := range notMatchable {
		if _, has := rowOf[name]; has {
			t.Errorf("Fields.%s is listed as not matchable but has a row", name)
		}
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("notMatchable names Fields.%s, which does not exist", name)
		}
		skip[name] = true
	}
	var missing []string
	for j := 0; j < typ.NumField(); j++ {
		name := typ.Field(j).Name
		if _, has := rowOf[name]; !has && !skip[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("Fields %v have no MatchFields row and are not in notMatchable", missing)
	}
}

// TestMaskReadsBackThroughFields: a Mask has the Key's layout, so the mask a
// MaskBuilder step writes is what the row's accessor reads out of the
// unpacked mask. One builder step per kind of row is checked against the
// table; the codec differentials (internal/openflow, ovs) cover the rest.
func TestMaskReadsBackThroughFields(t *testing.T) {
	m := NewMaskBuilder().InPort().EthSrc().IP4Src(12).IP4Dst(32).CtState(0x21).TunVNI().IPTTL().Build()
	spec := SpecOf(Key{}, m)
	want := map[string]uint64{
		"in_port": 0xffffffff, "dl_src": 0xffffffffffff, "nw_src": 0xfff00000, "nw_dst": 0xffffffff,
		"ct_state": 0x21, "tun_id": 0xffffffff, "nw_ttl": 0xff,
	}
	for i := range MatchFields {
		r := &MatchFields[i]
		if got := r.Get(&spec.Mask); got != want[r.Name] {
			t.Errorf("row %q reads mask %#x, want %#x", r.Name, got, want[r.Name])
		}
	}
	if spec.PackMask() != m {
		t.Error("PackMask is not the inverse of SpecOf")
	}
}

func TestExpressibleByKind(t *testing.T) {
	exact, prefix, anyBits := MatchFieldByName("tp_dst"), MatchFieldByName("nw_src"), MatchFieldByName("ct_state")
	cases := []struct {
		r        *MatchField
		in, want uint64
		masked   bool
	}{
		{exact, 0xffff, 0xffff, false},
		{exact, 0xfffe, 0, false},
		{exact, 0, 0, false},
		{prefix, 0xffffffff, 0xffffffff, false},
		{prefix, 0xffff0000, 0xffff0000, true},
		{prefix, 0xff00ff00, 0xff000000, true}, // leading ones only
		{prefix, 0x7fffffff, 0, false},
		{anyBits, 0xff, 0xff, true},
		{anyBits, 0x05, 0x05, true},
		{anyBits, 0, 0, false},
	}
	for _, c := range cases {
		got, ok := c.r.Expressible(c.in)
		if got != c.want || ok != (c.want != 0) {
			t.Errorf("%s.Expressible(%#x) = %#x, %v; want %#x", c.r.Name, c.in, got, ok, c.want)
		}
		if ok && c.r.Masked(got) != c.masked {
			t.Errorf("%s.Masked(%#x) = %v", c.r.Name, got, !c.masked)
		}
	}
	if got := prefix.WireMask(0xff00ff00, true); got != 0xff000000 {
		t.Errorf("prefix WireMask = %#x", got)
	}
	if got := exact.WireMask(0x00ff, true); got != 0xffff {
		t.Errorf("an exact row honoured a wire mask: %#x", got)
	}
	if got := anyBits.WireMask(0, false); got != 0xff {
		t.Errorf("no wire mask must mean exact, got %#x", got)
	}
}

// TestFormatParsesBack: for every named row, random values under random
// masks of the row's kind print to text that parses to the same value and
// mask.
func TestFormatParsesBack(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := range MatchFields {
		r := &MatchFields[i]
		if r.Name == "" {
			continue
		}
		for n := 0; n < 200; n++ {
			v, m := rng.Uint64()&r.Ones(), r.Ones()
			switch r.Mask {
			case MaskPrefix:
				m = r.Ones() &^ (r.Ones() >> (1 + rng.Intn(r.bits)))
			case MaskBits:
				m = 1 + rng.Uint64()%(1<<len(r.Flags)-1)
			}
			if r.Syntax == SyntaxVLAN {
				v = VLANPresent | v&0xfff // all the syntax can say
			}
			if r.Syntax == SyntaxFlags {
				v &= m // a flag outside the mask has no sign to print
			}
			text := r.Format(v, m)
			gotV, gotM, err := r.Parse(text)
			if err != nil || gotV != v || gotM != m {
				t.Fatalf("%s: %#x/%#x printed as %q, parsed back as %#x/%#x, %v", r.Name, v, m, text, gotV, gotM, err)
			}
		}
	}
}

// TestUncarriedNamesTheField: a mask the rows state is carried whole; a
// member no row reads, a part an exact row cannot state and bits between the
// members are named.
func TestUncarriedNamesTheField(t *testing.T) {
	cases := []struct {
		m    Mask
		want string
	}{
		{Mask{}, ""},
		{NewMaskBuilder().EthType().IPProto().TCPFlags(0x12).ICMP().IPTOS().IPTTL().IPFrag().IP4Src(8).Build(), ""},
		{NewMaskBuilder().EthType().Build().Union(Mask{wIP6SrcA: 1}), "IPv6Src"},
		{Mask{wIP6DstB: 1 << 63}, "IPv6Dst"},
		{Mask{wIPMeta: 0x0f << 56}, "IPProto"},
		{Mask{wIP4: 0x00ff0000}, "IP4Dst"}, // not a prefix
		{Mask{wL4: 0xff}, "unused key bits"},
	}
	for _, c := range cases {
		if got := Uncarried(c.m); got != c.want {
			t.Errorf("Uncarried(%x) = %q, want %q", c.m, got, c.want)
		}
	}
}
