package metrics

import (
	"fmt"
	"io"
	"sort"
)

// namePrefix namespaces every exported family.
const namePrefix = "wavefront_"

// kernelPathLabel maps the registry's flattened kernel-path counter names
// back to the path label value of the kernel_path_total family.
func kernelPathLabel(name string) (string, bool) {
	switch name {
	case KernelPathSpan:
		return "span", true
	case KernelPathSkewed:
		return "skewed", true
	case KernelPathScalar:
		return "scalar", true
	case KernelPathClosure:
		return "closure", true
	}
	return "", false
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): counters with a rank label, gauges bare,
// histograms with cumulative le buckets, fits as sample-count counters
// plus alpha/beta gauges. Two derived per-rank gauges — rank_busy_ratio
// and rank_wait_ratio, pipeline_busy_ns_total and pipeline_wait_ns_total
// over wall time since the epoch — are computed at scrape time so a scrape
// of a running session always carries live utilization. Safe to call while
// ranks are recording.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "# metrics disabled\n")
		return err
	}
	s := r.Snapshot()

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	pathTyped := false
	for _, name := range names {
		c := s.Counters[name]
		// The kernel_path_* family flattens a path label into the counter
		// name (the registry keys instruments by bare name); re-expand it
		// here so the exposition carries one kernel_path_total family with
		// path and rank labels.
		if path, ok := kernelPathLabel(name); ok {
			if !pathTyped {
				fmt.Fprintf(w, "# TYPE %skernel_path_total counter\n", namePrefix)
				pathTyped = true
			}
			for rank, v := range c.PerRank {
				fmt.Fprintf(w, "%skernel_path_total{path=%q,rank=\"%d\"} %d\n", namePrefix, path, rank, v)
			}
			continue
		}
		fmt.Fprintf(w, "# TYPE %s%s counter\n", namePrefix, name)
		for rank, v := range c.PerRank {
			fmt.Fprintf(w, "%s%s{rank=\"%d\"} %d\n", namePrefix, name, rank, v)
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s%s gauge\n", namePrefix, name)
		fmt.Fprintf(w, "%s%s %g\n", namePrefix, name, s.Gauges[name])
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(w, "# TYPE %s%s histogram\n", namePrefix, name)
		var cum int64
		for i, n := range h.Buckets {
			cum += n
			if i < NumBuckets {
				// Only print non-empty prefixes plus the first empty tail
				// bucket to keep the exposition compact.
				if n == 0 && cum == 0 {
					continue
				}
				fmt.Fprintf(w, "%s%s_bucket{le=\"%d\"} %d\n", namePrefix, name, h.UpperBound(i)+1, cum)
			}
		}
		fmt.Fprintf(w, "%s%s_bucket{le=\"+Inf\"} %d\n", namePrefix, name, h.Count)
		fmt.Fprintf(w, "%s%s_sum %d\n", namePrefix, name, h.Sum)
		fmt.Fprintf(w, "%s%s_count %d\n", namePrefix, name, h.Count)
	}

	names = names[:0]
	for name := range s.Fits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := s.Fits[name]
		fmt.Fprintf(w, "# TYPE %s%s_samples_total counter\n", namePrefix, name)
		fmt.Fprintf(w, "%s%s_samples_total %g\n", namePrefix, name, f.N)
		fmt.Fprintf(w, "# TYPE %s%s_alpha gauge\n", namePrefix, name)
		fmt.Fprintf(w, "%s%s_alpha %g\n", namePrefix, name, f.Alpha)
		fmt.Fprintf(w, "# TYPE %s%s_beta gauge\n", namePrefix, name)
		fmt.Fprintf(w, "%s%s_beta %g\n", namePrefix, name, f.Beta)
	}

	// Derived live utilization: busy/wait ns over wall ns since the epoch.
	// Both counters are the Observer's fold of trace.RingClass — wait is
	// blocked sends and receives plus barrier waits, as in a trace summary.
	busy, okBusy := s.Counters[PipeBusyNs]
	if okBusy && s.WallNs > 0 {
		ratio := func(name string, perRank []int64) {
			fmt.Fprintf(w, "# TYPE %s%s gauge\n", namePrefix, name)
			for rank := range busy.PerRank {
				var ns int64
				if rank < len(perRank) {
					ns = perRank[rank]
				}
				fmt.Fprintf(w, "%s%s{rank=\"%d\"} %g\n", namePrefix, name, rank, float64(ns)/float64(s.WallNs))
			}
		}
		ratio("rank_busy_ratio", busy.PerRank)
		ratio("rank_wait_ratio", s.Counters[PipeWaitNs].PerRank)
	}
	return nil
}
