"""Project symbol table: module naming, imports, resolution."""

from repro.lint.program.symbols import Program


class TestModuleNaming:
    def test_dotted_names_relative_to_common_root(self, build_program):
        program = build_program(
            {
                "pkg/perf/model.py": "X = 1\n",
                "pkg/obs/export.py": "Y = 2\n",
            }
        )
        assert sorted(program.modules) == ["obs.export", "perf.model"]

    def test_package_init_names_the_package(self, build_program):
        program = build_program(
            {
                "pkg/perf/__init__.py": "",
                "pkg/perf/model.py": "X = 1\n",
                "pkg/other.py": "Y = 2\n",
            }
        )
        assert sorted(program.modules) == ["other", "perf", "perf.model"]

    def test_build_is_independent_of_file_order(self):
        import ast

        files = [
            ("pkg/a.py", ast.parse("import b\n")),
            ("pkg/b.py", ast.parse("X = 1\n")),
        ]
        forward = Program.build(files)
        backward = Program.build(list(reversed(files)))
        assert sorted(forward.modules) == sorted(backward.modules)

    def test_module_named_matches_by_suffix(self, build_program):
        program = build_program(
            {
                "pkg/perf/model.py": "X = 1\n",
                "pkg/obs/export.py": "Y = 2\n",
            }
        )
        assert program.module_named("perf.model").name == "perf.model"
        # A fixture tree import says ``repro.perf.model``; the table
        # registered ``perf.model`` — reverse-suffix matching covers it.
        assert program.module_named("repro.perf.model").name == "perf.model"


class TestResolution:
    def test_from_import_resolves_to_project_function(self, build_program):
        program = build_program(
            {
                "pkg/util.py": "def helper():\n    return 1\n",
                "pkg/main.py": (
                    "from util import helper\n"
                    "def run():\n"
                    "    return helper()\n"
                ),
            }
        )
        module = program.modules["main"]
        resolved = program.resolve_name(module, "helper")
        assert resolved.kind == "project"
        assert resolved.name == "util.helper"

    def test_module_attribute_chain_resolves(self, build_program):
        program = build_program(
            {
                "pkg/util.py": "def helper():\n    return 1\n",
                "pkg/main.py": (
                    "import util\n"
                    "def run():\n"
                    "    return util.helper()\n"
                ),
            }
        )
        module = program.modules["main"]
        resolved = program.resolve_dotted(module, ["util", "helper"])
        assert resolved.kind == "project"
        assert resolved.name == "util.helper"

    def test_relative_import_resolves(self, build_program):
        program = build_program(
            {
                "pkg/anchor.py": "Z = 0\n",
                "pkg/sub/__init__.py": "",
                "pkg/sub/util.py": "def helper():\n    return 1\n",
                "pkg/sub/main.py": (
                    "from .util import helper\n"
                    "def run():\n"
                    "    return helper()\n"
                ),
            }
        )
        module = program.modules["sub.main"]
        resolved = program.resolve_name(module, "helper")
        assert resolved.kind == "project"
        assert resolved.name == "sub.util.helper"

    def test_function_local_import_resolves(self, build_program):
        program = build_program(
            {
                "pkg/util.py": "def helper():\n    return 1\n",
                "pkg/main.py": (
                    "def run():\n"
                    "    from util import helper\n"
                    "    return helper()\n"
                ),
            }
        )
        module = program.modules["main"]
        resolved = program.resolve_name(module, "helper")
        assert resolved.kind == "project"
        assert resolved.name == "util.helper"

    def test_module_level_import_wins_over_local_alias(self, build_program):
        program = build_program(
            {
                "pkg/one.py": "def f():\n    return 1\n",
                "pkg/two.py": "def f():\n    return 2\n",
                "pkg/main.py": (
                    "from one import f\n"
                    "def run():\n"
                    "    from two import f\n"
                    "    return f()\n"
                ),
            }
        )
        module = program.modules["main"]
        assert program.resolve_name(module, "f").name == "one.f"

    def test_external_import_resolves_to_dotted_name(self, build_program):
        program = build_program(
            {
                "pkg/main.py": (
                    "import time\n"
                    "def run():\n"
                    "    return time.perf_counter()\n"
                ),
            }
        )
        module = program.modules["main"]
        resolved = program.resolve_dotted(module, ["time", "perf_counter"])
        assert resolved.kind == "external"
        assert resolved.name == "time.perf_counter"

    def test_class_fields_collected(self, build_program):
        program = build_program(
            {
                "pkg/mod.py": (
                    "class Point:\n"
                    "    x: int\n"
                    "    y: int\n"
                    "    def norm(self):\n"
                    "        return self.x\n"
                ),
            }
        )
        module = program.modules["mod"]
        klass = module.classes["Point"]
        assert klass.fields == ["x", "y"]
        assert "mod.Point.norm" in program.functions
