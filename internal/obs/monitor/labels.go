package monitor

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// Labeled series.
//
// The Store keys every series by a flat name; label sets ride inside that
// name under a canonical encoding so labeled series inherit the store's
// whole contract (ring windows, rollups, window-wise Merge) without a
// second data model. The encoding is
//
//	family{k="v",k2="v2"}
//
// with keys sorted and values written verbatim — producers build names
// through LabeledSeries so two series with the same label set always
// collide onto the same string, and consumers (the mql query engine, the
// OpenMetrics exposition) split them back with SplitSeries. A name with no
// '{' is an unlabeled series whose family is the whole name.

// Label is one key=value pair of a labeled series name — the exposition's
// label type, so a decoded label set renders back through obs.LabelBlock.
type Label = obs.Label

// LabeledSeries canonically encodes a family plus labels as a store series
// name: keys are sorted, values written verbatim (producers must not put
// '"' or newlines in label values). No labels returns the bare family.
func LabeledSeries(family string, labels ...Label) string {
	if len(labels) == 0 {
		return family
	}
	ls := append([]Label(nil), labels...)
	// Order by (key, value): a total order, so the canonical form does not
	// depend on sort stability even for degenerate duplicate keys.
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Key != ls[j].Key {
			return ls[i].Key < ls[j].Key
		}
		return ls[i].Val < ls[j].Val
	})
	return family + obs.LabelBlock(ls)
}

// SplitSeries decodes a canonical series name into its family and label
// set. Names without a label block (or with one that does not parse) come
// back as a bare family with nil labels, so unlabeled series and foreign
// names degrade gracefully.
func SplitSeries(name string) (family string, labels []Label) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, nil
	}
	if !strings.HasSuffix(name, "}") {
		return name, nil
	}
	family = name[:i]
	body := name[i+1 : len(name)-1]
	for _, part := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return name, nil // not the canonical encoding; treat as opaque
		}
		labels = append(labels, Label{Key: k, Val: v[1 : len(v)-1]})
	}
	return family, labels
}
