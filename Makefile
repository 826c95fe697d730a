.PHONY: all check build test bench clean

all: build

build:
	dune build @all

test:
	dune runtest

# Tier-1 verification in one command (what CI runs).
check: build test

bench:
	dune exec bench/main.exe -- --timings

clean:
	dune clean
