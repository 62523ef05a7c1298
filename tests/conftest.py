"""Shared fixtures: the paper's figure tables and a small ready catalog."""

from __future__ import annotations

import pytest

from repro.relational import Catalog, View, parse_query
from repro.workloads.healthcare import (
    paper_drugcost,
    paper_familydoctor,
    paper_policies,
    paper_prescriptions,
)


@pytest.fixture
def prescriptions():
    """The Prescriptions table from Figures 2-4 (5 rows)."""
    return paper_prescriptions()


@pytest.fixture
def policies():
    return paper_policies()


@pytest.fixture
def familydoctor():
    return paper_familydoctor()


@pytest.fixture
def drugcost():
    return paper_drugcost()


@pytest.fixture
def paper_catalog(prescriptions, policies, familydoctor, drugcost):
    """Catalog with the four paper tables plus the no-HIV view."""
    catalog = Catalog()
    catalog.add_table(prescriptions)
    catalog.add_table(policies)
    catalog.add_table(familydoctor)
    catalog.add_table(drugcost)
    catalog.add_view(
        View(
            "nohiv",
            parse_query(
                "SELECT patient, doctor, drug, disease, date "
                "FROM prescriptions WHERE disease != 'HIV'"
            ),
        )
    )
    return catalog


@pytest.fixture(scope="session")
def scenario():
    """One shared end-to-end scenario (expensive; build once per session)."""
    from repro.simulation import build_scenario

    return build_scenario()
