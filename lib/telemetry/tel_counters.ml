type t = {
  mutable started : int;
  mutable commits : int;
  mutable aborts_read : int;
  mutable aborts_lock : int;
  mutable aborts_serial : int;
  mutable aborts_user : int;
  mutable fallbacks : int;
  mutable extensions : int;
  mutable ext_fails : int;
}

let create () =
  {
    started = 0;
    commits = 0;
    aborts_read = 0;
    aborts_lock = 0;
    aborts_serial = 0;
    aborts_user = 0;
    fallbacks = 0;
    extensions = 0;
    ext_fails = 0;
  }

let reset t =
  t.started <- 0;
  t.commits <- 0;
  t.aborts_read <- 0;
  t.aborts_lock <- 0;
  t.aborts_serial <- 0;
  t.aborts_user <- 0;
  t.fallbacks <- 0;
  t.extensions <- 0;
  t.ext_fails <- 0

let incr_started t = t.started <- t.started + 1
let incr_commits t = t.commits <- t.commits + 1
let incr_aborts_read t = t.aborts_read <- t.aborts_read + 1
let incr_aborts_lock t = t.aborts_lock <- t.aborts_lock + 1
let incr_aborts_serial t = t.aborts_serial <- t.aborts_serial + 1
let incr_aborts_user t = t.aborts_user <- t.aborts_user + 1
let incr_fallbacks t = t.fallbacks <- t.fallbacks + 1
let incr_extensions t = t.extensions <- t.extensions + 1
let incr_ext_fails t = t.ext_fails <- t.ext_fails + 1

let started t = t.started
let commits t = t.commits
let aborts_read t = t.aborts_read
let aborts_lock t = t.aborts_lock
let aborts_serial t = t.aborts_serial
let aborts_user t = t.aborts_user
let fallbacks t = t.fallbacks
let extensions t = t.extensions
let ext_fails t = t.ext_fails

let add acc x =
  acc.started <- acc.started + x.started;
  acc.commits <- acc.commits + x.commits;
  acc.aborts_read <- acc.aborts_read + x.aborts_read;
  acc.aborts_lock <- acc.aborts_lock + x.aborts_lock;
  acc.aborts_serial <- acc.aborts_serial + x.aborts_serial;
  acc.aborts_user <- acc.aborts_user + x.aborts_user;
  acc.fallbacks <- acc.fallbacks + x.fallbacks;
  acc.extensions <- acc.extensions + x.extensions;
  acc.ext_fails <- acc.ext_fails + x.ext_fails

let total_aborts t =
  t.aborts_read + t.aborts_lock + t.aborts_serial + t.aborts_user

let copy t =
  let c = create () in
  add c t;
  c

let to_json t =
  Tel_json.Obj
    [
      ("started", Tel_json.Int t.started);
      ("commits", Tel_json.Int t.commits);
      ("aborts_read", Tel_json.Int t.aborts_read);
      ("aborts_lock", Tel_json.Int t.aborts_lock);
      ("aborts_serial", Tel_json.Int t.aborts_serial);
      ("aborts_user", Tel_json.Int t.aborts_user);
      ("fallbacks", Tel_json.Int t.fallbacks);
      ("extensions", Tel_json.Int t.extensions);
      ("ext_fails", Tel_json.Int t.ext_fails);
    ]

let pp ppf t =
  Format.fprintf ppf
    "started=%d commits=%d aborts(read=%d lock=%d serial=%d user=%d) \
     fallbacks=%d extensions=%d ext_fails=%d"
    t.started t.commits t.aborts_read t.aborts_lock t.aborts_serial
    t.aborts_user t.fallbacks t.extensions
    t.ext_fails
