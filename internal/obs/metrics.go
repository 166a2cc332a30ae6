package obs

import (
	"sort"
	"strconv"
	"strings"
)

// FormatMetrics renders a counter snapshot (see engine.Engine.Metrics
// for where the counters live) as sorted "name value" lines — the
// REPL's \stats output.
func FormatMetrics(snap map[string]int64) string {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(snap[k], 10))
		b.WriteByte('\n')
	}
	return b.String()
}
