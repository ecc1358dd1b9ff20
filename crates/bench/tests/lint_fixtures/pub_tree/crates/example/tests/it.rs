pub fn integration_tests_are_not_src() {}
