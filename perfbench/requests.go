package main

import (
	"whisper/internal/experiments"
	"whisper/internal/server"
)

// Every input the benchmark sends derives from the workload seed through
// these functions; the program under test sees only the generated requests.

// Streams keep the inputs of different uses of one seed apart.
const (
	streamLadder = 2 // the traced layer ladder's leak requests
	streamOrder  = 3 // serve_hit request order
)

// splitmix64 is the SplitMix64 finaliser: a bijection on uint64 that
// scatters neighbouring inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the i-th value of a stream of the workload seed. The input
// (seed, stream, i) is packed injectively for seeds below 2^32 and i below
// 2^24, so distinct triples give distinct draws.
func draw(seed int64, stream uint64, i int) uint64 {
	return splitmix64(uint64(seed)<<32 ^ stream<<24 ^ uint64(i))
}

// positiveSeed maps a draw onto a non-zero int64 (0 means "default seed" to
// the program).
func positiveSeed(x uint64) int64 { return int64(x>>1) | 1 }

const (
	secretLen      = 8
	secretAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
)

// leakRequest is the i-th leak of stream: an 8-byte secret with its own
// request seed, at the default CPU and kernel configuration.
func leakRequest(seed int64, stream uint64, i int) server.Request {
	x := draw(seed, stream, i)
	secret := make([]byte, secretLen)
	h := splitmix64(x)
	for j := range secret {
		secret[j] = secretAlphabet[h%uint64(len(secretAlphabet))]
		h /= uint64(len(secretAlphabet))
	}
	return server.Request{Experiment: "leak", Seed: positiveSeed(x), Secret: string(secret)}
}

// hitOrder is a seeded permutation of the servable sweeps at default
// parameters; serve_hit cycles through it.
func hitOrder(seed int64) []string {
	names := experiments.Sweeps()
	for i := len(names) - 1; i > 0; i-- {
		j := int(draw(seed, streamOrder, i) % uint64(i+1))
		names[i], names[j] = names[j], names[i]
	}
	return names
}
