module ompssgo/benchmark

go 1.22

require ompssgo v0.0.0

replace ompssgo => ../
