module edgefabric/bench

go 1.22

require edgefabric v0.0.0

replace edgefabric => ../
