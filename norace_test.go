//go:build !race

package cityhunter_test

const raceEnabled = false
