package main

import "fixture/internal/lib"

func main() {
	println(lib.Measure().Width, lib.Check() != nil, lib.New(lib.Config{Rate: 2}))
}
