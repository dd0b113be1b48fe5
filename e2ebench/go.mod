module tpjoin/e2ebench

go 1.24

require tpjoin v0.0.0

replace tpjoin => ../
