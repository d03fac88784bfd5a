"""Box mesh checks: topology, quadrature, support sets, VTK dump."""

import numpy as np
import pytest

from latinpgd.mesh import Mesh, generate_box_mesh, write_vtk


class TestGeneration:
    def test_desk_beam_dof_count(self):
        mesh = generate_box_mesh(8.0, 0.3, 0.3, 16, 2, 2)
        assert mesh.n_nodes == 17 * 3 * 3
        assert mesh.n_dofs == 459
        assert mesh.n_elements == 16 * 2 * 2

    def test_unit_cube(self):
        mesh = generate_box_mesh(1.0, 1.0, 1.0, 1, 1, 1, support="face")
        assert mesh.n_nodes == 8
        assert mesh.gp_weights.sum() == pytest.approx(1.0, rel=1e-14)

    def test_gauss_weights_match_element_volume(self):
        mesh = generate_box_mesh(8.0, 0.3, 0.3, 16, 2, 2)
        vol = (8.0 / 16) * (0.3 / 2) * (0.3 / 2)
        assert np.allclose(mesh.gp_weights.sum(axis=1), vol, rtol=1e-13)
        assert mesh.gp_weights.sum() == pytest.approx(0.72, rel=1e-13)

    @pytest.mark.parametrize("counts", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_zero_counts_rejected(self, counts):
        with pytest.raises(ValueError):
            generate_box_mesh(1.0, 1.0, 1.0, *counts)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            generate_box_mesh(-1.0, 1.0, 1.0, 1, 1, 1)

    def test_connectivity_within_bounds_and_positive_jacobian(self):
        mesh = generate_box_mesh(2.0, 1.0, 0.5, 3, 2, 2)
        assert mesh.conn.min() >= 0 and mesh.conn.max() < mesh.n_nodes
        assert np.all(mesh.gp_weights > 0.0)


class TestSupports:
    def test_line_support_is_mid_height_of_end_faces(self):
        mesh = generate_box_mesh(8.0, 0.3, 0.3, 16, 2, 2)
        sup = mesh.nodes[mesh.prescribed_nodes]
        assert mesh.prescribed_nodes.size == 2 * 3  # (ny+1) nodes per end
        assert np.all(np.isclose(sup[:, 0], 0.0) | np.isclose(sup[:, 0], 8.0))
        assert np.allclose(sup[:, 2], 0.15)
        assert mesh.prescribed_dofs.size == 18
        assert mesh.free_dofs.size == 459 - 18

    def test_face_support_blocks_whole_end_sections(self):
        mesh = generate_box_mesh(8.0, 0.3, 0.3, 16, 2, 2, support="face")
        assert mesh.prescribed_nodes.size == 2 * 3 * 3

    def test_line_support_needs_even_nz(self):
        with pytest.raises(ValueError):
            generate_box_mesh(8.0, 0.3, 0.3, 16, 2, 3, support="line")

    def test_unknown_support_rejected(self):
        with pytest.raises(ValueError):
            generate_box_mesh(1.0, 1.0, 1.0, 2, 2, 2, support="edges")

    def test_prescribed_node_bounds_checked(self):
        mesh = generate_box_mesh(1.0, 1.0, 1.0, 1, 1, 1, support="face")
        with pytest.raises(ValueError):
            Mesh(mesh.nodes, mesh.conn, np.array([99]))

    def test_partition_is_disjoint_and_complete(self):
        mesh = generate_box_mesh(1.0, 1.0, 1.0, 2, 2, 2)
        both = np.concatenate([mesh.free_dofs, mesh.prescribed_dofs])
        assert np.array_equal(np.sort(both), np.arange(mesh.n_dofs))


class TestVtkDump:
    def test_legacy_ascii_layout(self, tmp_path):
        mesh = generate_box_mesh(2.0, 1.0, 1.0, 2, 1, 1, support="face")
        path = tmp_path / "mesh.vtk"
        write_vtk(mesh, path,
                  point_data={"u": np.zeros((mesh.n_nodes, 3)),
                              "z_coord": mesh.nodes[:, 2]},
                  cell_data={"damage": np.linspace(0.0, 1.0, mesh.n_elements)})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert lines[4] == "POINTS %d double" % mesh.n_nodes
        cells_at = lines.index("CELLS %d %d" % (mesh.n_elements, 9 * mesh.n_elements))
        types_at = lines.index("CELL_TYPES %d" % mesh.n_elements)
        assert all(lines[types_at + 1 + k] == "12" for k in range(mesh.n_elements))
        assert "POINT_DATA %d" % mesh.n_nodes in lines
        assert "CELL_DATA %d" % mesh.n_elements in lines
        assert "VECTORS u double" in lines
        assert "SCALARS damage double 1" in lines
        # first cell line: 8 vertex ids
        first = lines[cells_at + 1].split()
        assert first[0] == "8" and len(first) == 9

    def test_points_roundtrip(self, tmp_path):
        mesh = generate_box_mesh(1.0, 2.0, 3.0, 2, 2, 2)
        path = tmp_path / "mesh.vtk"
        write_vtk(mesh, path)
        lines = path.read_text().splitlines()
        pts = np.array([[float(x) for x in lines[5 + i].split()]
                        for i in range(mesh.n_nodes)])
        assert np.allclose(pts, mesh.nodes, atol=0.0)

    def test_bad_field_shape_rejected(self, tmp_path):
        mesh = generate_box_mesh(1.0, 1.0, 1.0, 1, 1, 1, support="face")
        with pytest.raises(ValueError):
            write_vtk(mesh, tmp_path / "m.vtk", point_data={"bad": np.zeros(5)})
