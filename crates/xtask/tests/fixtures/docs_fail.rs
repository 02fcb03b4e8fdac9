// Failing fixture for the workspace `missing_docs` level: the crate,
// a fn, a struct and its field are all undocumented.
pub fn undocumented() {}

pub struct Config {
    pub retries: u32,
}
