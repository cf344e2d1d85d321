package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction (cpu_amd64.s).
func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// cpuModel reads the processor brand string from CPUID leaves
// 0x80000002-4.
func cpuModel() string {
	if top, _, _, _ := cpuid(0x80000000, 0); top < 0x80000004 {
		return "unknown"
	}
	var brand []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, b, c, d := cpuid(leaf, 0)
		for _, r := range []uint32{a, b, c, d} {
			brand = binary.LittleEndian.AppendUint32(brand, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(brand), "\x00"))
}
