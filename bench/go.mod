module github.com/olaplab/gmdj/bench

go 1.22

require github.com/olaplab/gmdj v0.0.0

replace github.com/olaplab/gmdj => ../
