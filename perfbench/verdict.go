package main

import (
	"fmt"

	"repro/internal/serve"
)

// The known answers below come from how each input was built — registry
// labels, the synthetic region's construction, the upload's truncation —
// never from the detector. Each judge records a missed bug or a false
// alarm on the outcome, and a wrong verdict in out.wrong.

func (out *outcome) setWrong(format string, args ...any) {
	if out.wrong == "" {
		out.wrong = fmt.Sprintf(format, args...)
	}
}

// judgeProgram checks a report against its program's registry label: a
// buggy variant must report a violation (a known miss may not), a fixed
// variant or an overhead application must report none.
func judgeProgram(p *program, out *outcome) {
	n := len(out.rep.Violations)
	switch {
	case p.buggy && n == 0:
		out.missed = true
		if !knownMisses[p.app] {
			out.setWrong("%s: planted bug not reported", p.name)
		}
	case !p.buggy && n > 0:
		out.falseAlarm = true
		out.setWrong("%s: %d violation(s) on a clean input, first: %v", p.name, n, out.rep.Violations[0])
	}
}

// judgeHot requires exactly the planted conflict: one violation between
// the two tail-word puts of ranks 1 and 2.
func judgeHot(in *hotInput, out *outcome) {
	vs := out.rep.Violations
	if len(vs) != 1 {
		out.missed = len(vs) == 0
		out.setWrong("hot-region: %d violations, want exactly the planted one", len(vs))
		return
	}
	a, b := site{vs[0].A.Rank, vs[0].A.Line}, site{vs[0].B.Rank, vs[0].B.Line}
	p, q := in.planted[0], in.planted[1]
	if !(a == p && b == q) && !(a == q && b == p) {
		out.falseAlarm = true
		out.setWrong("hot-region: violation between %v and %v, want the planted %v and %v", a, b, p, q)
	}
}

// judgeUpload checks a finished job: a truncated upload must come back
// done and degraded; an intact one done, not degraded and, unless its bug
// is a known miss, with a violation.
func judgeUpload(u *upload, out *outcome) {
	switch {
	case out.status != string(serve.StatusDone):
		out.setWrong("%s: job ended %s, want done", u.name, out.status)
	case u.truncated && !out.degraded:
		out.setWrong("%s: truncated upload not reported degraded", u.name)
	case !u.truncated && out.degraded:
		out.setWrong("%s: intact upload reported degraded", u.name)
	case !u.truncated && out.violations == 0:
		out.missed = true
		if !knownMisses[u.app] {
			out.setWrong("%s: planted bug not reported", u.name)
		}
	}
}
