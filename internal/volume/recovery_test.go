package volume

import (
	"testing"

	"aurora/internal/core"
)

// TestRecoveryPoint holds recovery's arithmetic to hand-built per-PG
// summaries: no cluster, no clock.
func TestRecoveryPoint(t *testing.T) {
	type L = []core.LSN
	for _, tc := range []struct {
		name     string
		pgs      []pgSummary
		vcl, vdl core.LSN
		skip     string
	}{
		{
			name: "clean chains",
			pgs: []pgSummary{
				{scl: 5, highest: 5, cpls: []L{{2, 5}, {2, 5}, {2}}},
				{scl: 4, highest: 4, cpls: []L{{4}, {4}}},
			},
			vcl: 5, vdl: 5,
		},
		{
			// PG1 holds records above a hole at 4: whatever sat in the hole
			// never reached a write quorum, so nothing after it was acked.
			name: "a hole caps the VCL at its PG's SCL",
			pgs: []pgSummary{
				{scl: 7, highest: 7, cpls: []L{{3, 7}}},
				{scl: 4, highest: 9, cpls: []L{{2, 9}}},
			},
			vcl: 4, vdl: 3,
		},
		{
			// The hole's own PG holds the highest SCL: it caps nothing.
			name: "a hole above every other PG's SCL",
			pgs: []pgSummary{
				{scl: 9, highest: 12, cpls: []L{{9, 12}}},
				{scl: 4, highest: 4, cpls: []L{{4}}},
			},
			vcl: 9, vdl: 9,
		},
		{
			// CPLs above the VCL (12, 11) do not count; the floor may come
			// from any replica of any PG, found exactly or from below.
			name: "VDL is the highest CPL at or below the VCL across PGs",
			pgs: []pgSummary{
				{scl: 6, highest: 12, cpls: []L{{5, 12}}},
				{scl: 11, highest: 11, cpls: []L{{3}, {3, 6, 11}}},
			},
			vcl: 6, vdl: 6,
		},
		{
			name: "no CPL at or below the VCL",
			pgs: []pgSummary{
				{scl: 2, highest: 2, cpls: []L{{3}, {}}},
				{scl: 1, highest: 1, cpls: []L{nil}},
			},
			vcl: 2, vdl: 0,
		},
		{
			name: "an empty volume",
			pgs:  []pgSummary{{cpls: []L{{}, {}, {}}}, {cpls: []L{{}, {}, {}}}},
			vcl:  0, vdl: 0,
		},
		{name: "no protection groups", vcl: 0, vdl: 0},
		{
			// The torn cross-PG MTR {pg0@1, pg1@2, pg0@3}: PG0 has 1 and 3
			// (a clean per-PG chain, CPL 3), PG1 has nothing. LSN 2 is on no
			// disk, so nothing above 1 is durable. Per-PG chains leave no
			// trace of LSN 2 in PG0, so recovery returns VCL = VDL = 3.
			name: "P0: an MTR whose middle record reached no segment",
			pgs: []pgSummary{
				{scl: 3, highest: 3, cpls: []L{{3}, {3}, {3}, {3}}},
				{cpls: []L{{}, {}, {}, {}}},
			},
			vcl: 1, vdl: 0,
			skip: "ROADMAP item 1: per-PG backlinks cannot see a record that reached no segment; the volume backlink fix removes this skip",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip != "" {
				t.Skip(tc.skip)
			}
			vcl, vdl := recoveryPoint(tc.pgs)
			if vcl != tc.vcl || vdl != tc.vdl {
				t.Fatalf("recoveryPoint = VCL %d, VDL %d; want VCL %d, VDL %d", vcl, vdl, tc.vcl, tc.vdl)
			}
		})
	}
}
