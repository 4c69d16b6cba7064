PYTHON ?= python3
ARTIFACTS ?= artifacts

.PHONY: install test acceptance reproduce bench clean

install:
	$(PYTHON) -m pip install --no-build-isolation -e .[test]

# The exit status is pytest's, not tee's; POSIX sh has no pipefail, so the
# status travels out of the pipeline on file descriptor 3.
test:
	@exec 4>&1; status=$$( { { $(PYTHON) -m pytest -v --durations=10 2>&1; echo $$? >&3; } \
		| tee test_output.txt >&4; } 3>&1 ); exit $$status

acceptance:
	$(PYTHON) -m pytest tests/test_acceptance.py -v

# Regenerate every CLI artifact (csv + svg + report.json per run). Every
# csv and svg must come out byte-identical to the committed copy in
# artifacts/ (ARTIFACTS may point outside the checkout), and every report
# equal to it once its timing, elapsed_seconds, is dropped.
RUNS = gbm_laplace bm_quartic jacobi_mgf levy_area expected_sig

# Exit 0 when the report on stdin equals the one named, apart from
# elapsed_seconds; NaN and Infinity are read as strings, so they compare.
SAME_REPORT = import json, sys; \
	load = lambda f: json.load(f, parse_constant=str); \
	drop = lambda d: {k: v for k, v in d.items() if k != "elapsed_seconds"}; \
	sys.exit(drop(load(sys.stdin)) != drop(load(open(sys.argv[1]))))

# The recipe runs from inside $(ARTIFACTS), so the checkout's src/ goes on
# PYTHONPATH: an uninstalled checkout reproduces too.
reproduce: export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))
reproduce:
	mkdir -p $(ARTIFACTS)
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli gbm-laplace --check --out gbm_laplace
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli bm-quartic --check --out bm_quartic
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli jacobi-mgf --check --out jacobi_mgf
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli levy-area --lambda 1 --check --out levy_area
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli expected-sig --level 3 --check --out expected_sig
	@for f in $(foreach r,$(RUNS),$(r).csv $(r).svg); do \
		git show HEAD:artifacts/$$f | cmp -s - $(ARTIFACTS)/$$f \
			|| { echo "$(ARTIFACTS)/$$f differs from HEAD:artifacts/$$f"; exit 1; }; \
	done
	@for r in $(RUNS); do \
		git show HEAD:artifacts/$$r.report.json \
			| $(PYTHON) -c '$(SAME_REPORT)' $(ARTIFACTS)/$$r.report.json \
			|| { echo "$(ARTIFACTS)/$$r.report.json differs from HEAD:artifacts/$$r.report.json"; exit 1; }; \
	done

# Every benchmark workload, untraced and traced, every metric with its unit.
bench:
	$(PYTHON) perfbench/run.py --all --seed 1

clean:
	rm -rf $(ARTIFACTS) test_output.txt
