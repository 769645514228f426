package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// fsName names the filesystem holding path, from statfs's magic number.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM) to
// the current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the resident-set peak: %w", err)
	}
	return nil
}

// peakRSSMB is the resident-set high-water mark since the last
// resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostInfo records the host and run settings stamped into every result.
func hostInfo(cfg *config) map[string]any {
	info := map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"workload":        cfg.workload,
		"seed":            cfg.seed,
		"rows":            cfg.rows,
		"tr_ms":           ms(cfg.tr),
		"rate_per_s":      cfg.rate,
		"sessions":        cfg.sessions,
		"warmup_s":        cfg.warmup.Seconds(),
		"window_s":        cfg.window.Seconds(),
		"setup_reps":      cfg.setupReps,
		"workflows":       cfg.workflows * numTypes,
		"workflow_steps":  cfg.steps,
		"lag_bound_ms":    ms(cfg.lagBound),
		"max_outstanding": cfg.maxOutstanding,
	}
	if cfg.workload == wlSharded {
		info["shards"] = cfg.shards
	}
	if cfg.ingestRate > 0 {
		info["ingest_rate_per_s"] = cfg.ingestRate
		info["ingest_batch_rows"] = cfg.ingestRows
		info["wal_fs"] = fsName(cfg.workDir)
		info["wal_flush"] = "fsync per batch before ack"
	}
	return info
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
