package core

import (
	"strings"
	"testing"

	"repro/internal/testutil"
	"repro/internal/trace"
)

func TestHints(t *testing.T) {
	cases := []struct {
		name  string
		build func() *testutil.TraceBuilder
		rule  string // the rule family the case must reach
		want  string
	}{
		{
			name: "get-origin",
			build: func() *testutil.TraceBuilder {
				b := testutil.NewTraceBuilder(2)
				b.WinCreate(1, 0x1000, 64)
				b.Fence(1)
				b.Add(0, getEv(1, 0x500, 0, 1))
				b.Add(0, loc(trace.Event{Kind: trace.KindLoad, Addr: 0x500, Size: 4}, 2))
				b.Fence(1)
				return b
			},
			rule: "origin buffer of a pending Get",
			want: "close the epoch",
		},
		{
			name: "put-origin",
			build: func() *testutil.TraceBuilder {
				b := testutil.NewTraceBuilder(2)
				b.WinCreate(1, 0x1000, 64)
				b.Fence(1)
				b.Add(0, putEv(1, 0x500, 0, 1))
				b.Add(0, loc(trace.Event{Kind: trace.KindStore, Addr: 0x500, Size: 4}, 2))
				b.Fence(1)
				return b
			},
			rule: "origin buffer of a pending Put",
			want: "delay reuse of the origin buffer",
		},
		{
			name: "store-rule",
			build: func() *testutil.TraceBuilder {
				b := testutil.NewTraceBuilder(2)
				b.WinCreate(1, 0x1000, 64)
				b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 1))
				b.Add(0, putEv(1, 0x500, 0, 2))
				b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 3))
				b.Add(1, loc(trace.Event{Kind: trace.KindStore, Addr: 0x1020, Size: 4}, 4))
				return b
			},
			rule: "erroneous even without overlap",
			want: "interprocess synchronization",
		},
		{
			name: "cross-rma",
			build: func() *testutil.TraceBuilder {
				b := testutil.NewTraceBuilder(3)
				b.WinCreate(1, 0x1000, 64)
				b.Fence(1)
				b.Add(0, putEv(1, 0x500, 0, 1))
				b.Add(2, putEv(1, 0x700, 0, 2))
				b.Fence(1)
				return b
			},
			rule: "from different processes overlap in the target window",
			want: "order the conflicting epochs",
		},
		{
			name: "fetch-result",
			build: func() *testutil.TraceBuilder {
				b := testutil.NewTraceBuilder(2)
				b.WinCreate(1, 0x1000, 64)
				b.Fence(1)
				b.Add(0, loc(trace.Event{Kind: trace.KindFetchOp, Win: 1, Target: 1, AccOp: trace.OpSum,
					OriginAddr: 0x500, OriginType: trace.TypeInt32, OriginCount: 1,
					ResultAddr: 0x600, ResultType: trace.TypeInt32, ResultCount: 1,
					TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 1}, 1))
				b.Add(0, loc(trace.Event{Kind: trace.KindLoad, Addr: 0x600, Size: 4}, 2))
				b.Fence(1)
				return b
			},
			rule: "result buffer of a pending Fetch_and_op",
			want: "close the epoch",
		},
		{
			name: "buffer-buffer",
			build: func() *testutil.TraceBuilder {
				b := testutil.NewTraceBuilder(2)
				b.WinCreate(1, 0x1000, 64)
				b.Fence(1)
				b.Add(0, getEv(1, 0x500, 0, 1))
				b.Add(0, getEv(1, 0x500, 8, 2))
				b.Fence(1)
				return b
			},
			rule: "origin buffer of Get overlaps the origin buffer of Get",
			want: "give concurrent operations in one epoch distinct local buffers",
		},
		{
			name: "target-target",
			build: func() *testutil.TraceBuilder {
				b := testutil.NewTraceBuilder(2)
				b.WinCreate(1, 0x1000, 64)
				b.Fence(1)
				b.Add(0, putEv(1, 0x500, 0, 1))
				b.Add(0, putEv(1, 0x500, 0, 2))
				b.Fence(1)
				return b
			},
			rule: "to overlapping target regions within one epoch",
			want: "split the operations into separate epochs",
		},
		{
			name: "cross-local",
			build: func() *testutil.TraceBuilder {
				b := testutil.NewTraceBuilder(2)
				b.WinCreate(1, 0x1000, 64)
				b.Add(0, loc(trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 1, Lock: trace.LockShared}, 1))
				b.Add(0, putEv(1, 0x500, 0, 2))
				b.Add(0, loc(trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 1}, 3))
				b.Add(1, loc(trace.Event{Kind: trace.KindLoad, Addr: 0x1000, Size: 4}, 4))
				return b
			},
			rule: "local Load at the target process conflicts",
			want: "order the local access against the remote epoch",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := analyze(t, c.build())
			if len(rep.Violations) == 0 {
				t.Fatal("no violation")
			}
			v := rep.Violations[0]
			if !strings.Contains(v.Rule, c.rule) {
				t.Errorf("rule = %q, want substring %q", v.Rule, c.rule)
			}
			if !strings.Contains(v.Hint(), c.want) {
				t.Errorf("hint = %q, want substring %q (rule %q)", v.Hint(), c.want, v.Rule)
			}
			if !strings.Contains(v.String(), "hint: ") {
				t.Error("String() must include the hint")
			}
		})
	}
}
