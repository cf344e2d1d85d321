//go:build !amd64

package main

// cpuModel is only read from CPUID on amd64.
func cpuModel() string { return "unknown" }
