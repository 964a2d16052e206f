package main

import "fixture/internal/lib"

var _ = lib.TestOnly()
