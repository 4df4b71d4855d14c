include Engine_log

let engine_name = "logging-delta"

let create ?n_keys () = create_with ?n_keys ~log_format:Delta ()
