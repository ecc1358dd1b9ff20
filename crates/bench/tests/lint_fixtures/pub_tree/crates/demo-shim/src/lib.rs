pub fn shims_are_not_product_crates() {}
