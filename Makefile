PYTHON ?= python3
ARTIFACTS ?= artifacts

.PHONY: install test acceptance reproduce bench clean

install:
	$(PYTHON) -m pip install --no-build-isolation -e .[test]

test:
	$(PYTHON) -m pytest -v 2>&1 | tee test_output.txt

acceptance:
	$(PYTHON) -m pytest tests/test_acceptance.py -v

# Regenerate every CLI artifact (csv + svg + report.json per run). The
# transport is bit-preserving, so the run fails if bm_quartic.csv changes.
reproduce:
	mkdir -p $(ARTIFACTS)
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli gbm-laplace --check --out gbm_laplace
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli bm-quartic --check --out bm_quartic
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli jacobi-mgf --check --out jacobi_mgf
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli levy-area --lambda 1 --check --out levy_area
	cd $(ARTIFACTS) && $(PYTHON) -m sigcalc.cli expected-sig --level 3 --check --out expected_sig
	git diff --exit-code $(ARTIFACTS)/bm_quartic.csv

# Every benchmark workload, untraced and traced, every metric with its unit.
bench:
	$(PYTHON) perfbench/run.py --all --seed 1

clean:
	rm -rf $(ARTIFACTS) test_output.txt
