package api

import (
	"sort"

	"ovsxdp/internal/dpif"
)

// FlowView is one installed megaflow as reported by the flow dump: the
// canonical text rendering (`megaflow{bits=.. hits=.. ..}`) plus the fields
// a machine reader would otherwise have to re-parse out of it.
type FlowView struct {
	Text     string `json:"text"`
	MaskBits int    `json:"mask_bits"`
	Hits     uint64 `json:"hits"`
}

// FlowPage is one page of a flow dump: the daemon's GET /v1/flows response
// body. Total is the full dump size so clients can page without a count
// endpoint.
type FlowPage struct {
	Total  int        `json:"total"`
	Offset int        `json:"offset"`
	Flows  []FlowView `json:"flows"`
}

// NewFlowViews materializes a flow dump into views, sorted by their text
// rendering — the same order `ovsctl dump-flows` has always printed. The
// dump entries are copied out immediately, so the returned views stay valid
// after the classifier churns.
func NewFlowViews(flows []dpif.Flow) []FlowView {
	out := make([]FlowView, 0, len(flows))
	for _, f := range flows {
		out = append(out, FlowView{
			Text:     f.Entry.String(),
			MaskBits: f.Entry.Mask().Bits(),
			Hits:     f.Entry.Hits,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Text < out[j].Text })
	return out
}

// PageFlows slices a sorted view list into one page. offset past the end
// yields an empty page; limit <= 0 means "the rest".
func PageFlows(views []FlowView, offset, limit int) FlowPage {
	p := FlowPage{Total: len(views), Offset: offset}
	if offset < 0 {
		offset = 0
		p.Offset = 0
	}
	if offset >= len(views) {
		p.Flows = []FlowView{}
		return p
	}
	rest := views[offset:]
	if limit > 0 && limit < len(rest) {
		rest = rest[:limit]
	}
	p.Flows = append([]FlowView{}, rest...)
	return p
}
