import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from steklov_cusp import DomainSpec, boundary_polygon, polygon_from_points
from steklov_cusp import mesh as meshmod


@pytest.fixture(scope="session")
def square_mesh():
    poly = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    return meshmod.triangulate(poly, 0.3)


@pytest.fixture(scope="session")
def disk_polygon():
    return boundary_polygon(DomainSpec.disk(1.0), n_arc=64)


@pytest.fixture(scope="session")
def disk_mesh(disk_polygon):
    return meshmod.triangulate(disk_polygon, 0.25)


@pytest.fixture(scope="session")
def disk_mesh_chain(disk_mesh):
    chain = [disk_mesh]
    for _ in range(2):
        chain.append(meshmod.refine_uniform(chain[-1]))
    return chain


@pytest.fixture(scope="session")
def cusp15_polygon():
    return boundary_polygon(DomainSpec.cusp(1.5), n_lateral=16, n_arc=32)


@pytest.fixture(scope="session")
def cusp15_mesh(cusp15_polygon):
    return meshmod.triangulate(cusp15_polygon, 0.35)


@pytest.fixture(scope="session")
def cusp2_coarse_mesh():
    poly = boundary_polygon(DomainSpec.cusp(2.0), n_lateral=8, n_arc=16)
    return meshmod.triangulate(poly, 0.6)
