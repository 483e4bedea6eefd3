module arbor/bench

go 1.22

require arbor v0.0.0

replace arbor => ../
