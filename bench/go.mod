module planetp/bench

go 1.22

require planetp v0.0.0

replace planetp => ../
