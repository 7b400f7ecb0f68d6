package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint identifies the box a result file was measured on: two
// files compare meaningfully only when these agree.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	// JournalFS is the filesystem under the journal directory: fsync cost
	// is a property of it.
	JournalFS string `json:"journal_fs"`
}

func boxFingerprint(journalDir string) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel(),
		JournalFS:  filesystemOf(journalDir),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fsNames maps statfs magic numbers to names for the filesystems a
// journal directory plausibly sits on.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x65735546: "fuse",
}

func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%X", int64(st.Type))
}
