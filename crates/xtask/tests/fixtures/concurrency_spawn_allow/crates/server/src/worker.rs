//! Fixture: the supervised worker pool owns its threads' join story.

/// Spawns a supervised worker thread.
pub fn run() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}
