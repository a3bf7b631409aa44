//go:build race

package controlplane

const raceEnabled = true
