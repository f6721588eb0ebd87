package types_test

import (
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/types"
)

// TestHashCountsDistinctTypes: on every generator, with and without
// tagged promotion, the number of distinct hashes of the inferred types
// equals the number of distinct types by Compare — the distinct-type
// statistic of Tables 2-5 is exact on this data.
func TestHashCountsDistinctTypes(t *testing.T) {
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 2000, 1)
		for _, pr := range []infer.Promoter{nil, fusion.Options{Strategy: fusion.Tagged{}}.Promoter()} {
			ts, err := infer.InferAllWith(data, nil, pr)
			if err != nil {
				t.Fatal(err)
			}
			hashes := map[uint64]bool{}
			for _, typ := range ts {
				hashes[types.Hash(typ)] = true
			}
			sort.Slice(ts, func(i, j int) bool { return types.Compare(ts[i], ts[j]) < 0 })
			distinct := 0
			for i := range ts {
				if i == 0 || types.Compare(ts[i-1], ts[i]) != 0 {
					distinct++
				}
			}
			if len(hashes) != distinct {
				t.Errorf("%s (promoter %v): %d distinct hashes, %d distinct types", name, pr != nil, len(hashes), distinct)
			}
		}
	}
}
