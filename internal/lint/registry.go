package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/cancelcheck"
	"repro/internal/lint/ctxhttp"
	"repro/internal/lint/metricname"
	"repro/internal/lint/sharedset"
	"repro/internal/lint/wiretag"
)

// All returns the repository's analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		cancelcheck.Analyzer,
		sharedset.Analyzer,
		wiretag.Analyzer,
		ctxhttp.Analyzer,
		metricname.Analyzer,
	}
}
