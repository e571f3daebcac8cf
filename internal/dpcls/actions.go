package dpcls

import "ovsxdp/internal/ofproto"

// actionTable is a classifier's table of the action lists its megaflows
// execute, so a record holds a 32-bit index instead of a slice header.
// Lists are interned by identity — ofproto compiles one list per OpenFlow
// rule and every megaflow translated through that rule shares it — and
// counted, so a list leaves the table with its last megaflow. Index 0 is
// the empty list (drop flows), which is never counted.
type actionTable struct {
	lists []actionList
	index map[actionKey]uint32
	free  []uint32
}

type actionList struct {
	list []ofproto.DPAction
	refs uint32
}

// actionKey identifies a list by its backing array and length.
type actionKey struct {
	first *ofproto.DPAction
	n     int
}

func newActionTable() actionTable {
	return actionTable{lists: make([]actionList, 1), index: make(map[actionKey]uint32)}
}

// intern returns the index of list, adding it on first use, and counts one
// more megaflow executing it.
func (t *actionTable) intern(list []ofproto.DPAction) uint32 {
	if len(list) == 0 {
		return 0
	}
	k := actionKey{&list[0], len(list)}
	i, ok := t.index[k]
	if !ok {
		if n := len(t.free); n > 0 {
			i, t.free = t.free[n-1], t.free[:n-1]
		} else {
			i = uint32(len(t.lists))
			t.lists = append(t.lists, actionList{})
		}
		t.lists[i].list = list
		t.index[k] = i
	}
	t.lists[i].refs++
	return i
}

// release counts one megaflow fewer executing list i, dropping the list
// with its last one.
func (t *actionTable) release(i uint32) {
	if i == 0 {
		return
	}
	l := &t.lists[i]
	if l.refs--; l.refs == 0 {
		delete(t.index, actionKey{&l.list[0], len(l.list)})
		*l = actionList{}
		t.free = append(t.free, i)
	}
}
