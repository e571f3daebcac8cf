package ofproto

import (
	"fmt"
	"sort"
	"strings"

	"ovsxdp/internal/flow"
)

// Match is an OpenFlow match: field values plus the mask saying which bits
// participate.
type Match struct {
	Key  flow.Key
	Mask flow.Mask
}

// NewMatch packs fields and masks them (values outside the mask are
// cleared so equal matches compare equal).
func NewMatch(f flow.Fields, m flow.Mask) Match {
	return Match{Key: f.Pack().Apply(m), Mask: m}
}

// MatchAny matches every packet.
func MatchAny() Match { return Match{} }

// Matches reports whether key satisfies the match.
func (m Match) Matches(key flow.Key) bool {
	return key.Apply(m.Mask) == m.Key
}

// String prints the match as flow text, name=value[/mask] pairs in the
// syntax ovs.ParseFlow reads (flow.MatchFields); a match on anything is "".
func (m Match) String() string {
	return flow.SpecOf(m.Key, m.Mask).String()
}

// Rule is one OpenFlow rule.
type Rule struct {
	TableID  uint8
	Priority int
	Match    Match
	Actions  []Action
	Cookie   uint64

	// Stats.
	PacketCount uint64
}

// String prints the rule as flow text. ovs.ParseFlow reads the header and
// the match back exactly, and the actions too where Action.String is in its
// syntax.
func (r *Rule) String() string {
	parts := []string{fmt.Sprintf("table=%d,priority=%d,cookie=%#x", r.TableID, r.Priority, r.Cookie)}
	if m := r.Match.String(); m != "" {
		parts = append(parts, m)
	}
	actions := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		actions[i] = a.String()
	}
	return strings.Join(parts, ",") + ",actions=" + strings.Join(actions, ",")
}

// subtable groups rules sharing a mask within one table.
type subtable struct {
	mask    flow.Mask
	rules   map[flow.Key][]*Rule // masked key -> rules (priority desc)
	maxPrio int
}

// Table is one OpenFlow table: a priority-aware tuple-space classifier.
// Lookup probes subtables in descending max-priority order and exits as
// soon as no remaining subtable can beat the best match found.
type Table struct {
	ID        uint8
	subtables []*subtable

	// Stats, as `ovs-ofctl dump-tables` would show.
	Lookups uint64
	Matches uint64
	ruleCnt int
}

// NewTable builds an empty table.
func NewTable(id uint8) *Table { return &Table{ID: id} }

// Len returns the rule count.
func (t *Table) Len() int { return t.ruleCnt }

// Insert adds a rule. Rules with identical table, match, and priority
// replace (OpenFlow flow-mod semantics).
func (t *Table) Insert(r *Rule) {
	st := t.findSubtable(r.Match.Mask)
	if st == nil {
		st = &subtable{mask: r.Match.Mask, rules: make(map[flow.Key][]*Rule)}
		t.subtables = append(t.subtables, st)
	}
	bucket := st.rules[r.Match.Key]
	for i, old := range bucket {
		if old.Priority == r.Priority {
			bucket[i] = r
			st.rules[r.Match.Key] = bucket
			return
		}
	}
	bucket = append(bucket, r)
	sort.SliceStable(bucket, func(i, j int) bool { return bucket[i].Priority > bucket[j].Priority })
	st.rules[r.Match.Key] = bucket
	t.ruleCnt++
	if r.Priority > st.maxPrio {
		st.maxPrio = r.Priority
		t.sortSubtables()
	}
}

// Remove deletes a rule matching (match, priority); it reports whether one
// was removed.
func (t *Table) Remove(m Match, priority int) bool {
	st := t.findSubtable(m.Mask)
	if st == nil {
		return false
	}
	bucket := st.rules[m.Key]
	for i, r := range bucket {
		if r.Priority == priority {
			bucket = append(bucket[:i], bucket[i+1:]...)
			if len(bucket) == 0 {
				delete(st.rules, m.Key)
			} else {
				st.rules[m.Key] = bucket
			}
			t.ruleCnt--
			if len(st.rules) == 0 {
				t.dropSubtable(st)
			}
			return true
		}
	}
	return false
}

// Lookup returns the highest-priority rule matching key, along with the
// union of subtable masks probed (the wildcarding information translation
// folds into the megaflow mask) and the number of subtables probed.
func (t *Table) Lookup(key flow.Key) (*Rule, flow.Mask, int) {
	t.Lookups++
	var best *Rule
	var probedMask flow.Mask
	probes := 0
	for _, st := range t.subtables {
		if best != nil && best.Priority >= st.maxPrio {
			break // no remaining subtable can win
		}
		probes++
		probedMask = probedMask.Union(st.mask)
		if bucket, ok := st.rules[key.Apply(st.mask)]; ok {
			top := bucket[0]
			if best == nil || top.Priority > best.Priority {
				best = top
			}
		}
	}
	if best != nil {
		t.Matches++
		best.PacketCount++
	}
	return best, probedMask, probes
}

// Rules lists all rules (order unspecified).
func (t *Table) Rules() []*Rule {
	var out []*Rule
	for _, st := range t.subtables {
		for _, bucket := range st.rules {
			out = append(out, bucket...)
		}
	}
	return out
}

// DistinctMasks returns the number of subtables (distinct match shapes),
// one of the Table 3 statistics.
func (t *Table) DistinctMasks() int { return len(t.subtables) }

func (t *Table) findSubtable(m flow.Mask) *subtable {
	for _, st := range t.subtables {
		if st.mask == m {
			return st
		}
	}
	return nil
}

func (t *Table) dropSubtable(st *subtable) {
	for i, s := range t.subtables {
		if s == st {
			t.subtables = append(t.subtables[:i], t.subtables[i+1:]...)
			return
		}
	}
}

func (t *Table) sortSubtables() {
	sort.SliceStable(t.subtables, func(i, j int) bool {
		return t.subtables[i].maxPrio > t.subtables[j].maxPrio
	})
}
