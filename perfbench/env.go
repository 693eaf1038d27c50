package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envStamp records where a run happened, so runs from different
// machines are never compared blindly.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Every worker setting of the program: SearchOpts.Workers,
	// controller Options.ProbeWorkers, SpreadOpts.ProbeWorkers.
	SearchWorkers int    `json:"search_workers"`
	ProbeWorkers  int    `json:"probe_workers"`
	SpreadWorkers int    `json:"spread_workers"`
	JournalFS     string `json:"journal_fs"`
	// HostStealPct is the share of CPU time the hypervisor gave to other
	// guests during the run (0 on bare metal): on a shared host, runs
	// with a high share were slowed by neighbours, not by the program.
	HostStealPct float64 `json:"host_steal_pct"`
}

func stampEnv(dir string, nproc int) envStamp {
	return envStamp{
		NProc:         nproc,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		SearchWorkers: nproc,
		ProbeWorkers:  nproc,
		SpreadWorkers: nproc,
		JournalFS:     fsType(dir),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	default:
		return fmt.Sprintf("magic-0x%X", uint32(st.Type))
	}
}

// cpuTicks returns the steal and total ticks of /proc/stat's aggregate
// cpu line (ok false where it cannot be read).
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealPct returns the steal share between two cpuTicks readings.
func stealPct(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}
