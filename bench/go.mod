module ptgsched/bench

go 1.22

require ptgsched v0.0.0

replace ptgsched => ../
