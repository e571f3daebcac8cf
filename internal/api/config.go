package api

import (
	"fmt"
	"sort"
	"strings"
)

// ConfigView is the effective other_config overlay: what `ovsctl get`
// prints and what GET/PUT /v1/config exchange. NewConfigView copies the
// map it is given, so handing a view to an HTTP encoder (or mutating one
// decoded from a request) never reaches daemon state.
type ConfigView struct {
	Values map[string]string `json:"values"`
}

// NewConfigView deep-copies an other_config map into a view.
func NewConfigView(kv map[string]string) ConfigView {
	v := ConfigView{Values: make(map[string]string, len(kv))}
	for k, val := range kv {
		v.Values[k] = val
	}
	return v
}

// Format renders the sorted "key=value" lines of `ovsctl get`; it lives
// here so every config surface renders through the view layer.
func (v ConfigView) Format() string {
	keys := make([]string, 0, len(v.Values))
	for k := range v.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, v.Values[k])
	}
	return b.String()
}
